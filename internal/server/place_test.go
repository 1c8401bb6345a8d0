package server

import (
	"net"
	"testing"
	"time"

	"themisio/internal/transport"
)

// Every write whose payload was read straight into a reserved extent
// either lands, its extent adopted, or gives the extent back exactly
// once: after each case the device holds the local stripes' bytes and
// nothing else. (Shard.Unreserve panics on a second return.) Each payload
// is 16 KiB, above the placement threshold.
func TestRefusedWritesReturnTheirExtent(t *testing.T) {
	// OpDelay holds each drawn request long enough for the closed
	// connection case to close before its request executes.
	srv := startFabric(t, listen(t, 1), func(c *Config) { c.Workers, c.OpDelay = 1, 5*time.Millisecond })[0]
	self := srv.Addr()
	shard := srv.Shard()

	dial := func() *transport.Conn {
		raw, err := net.Dial("tcp", self)
		if err != nil {
			t.Fatal(err)
		}
		return transport.NewConn(raw)
	}
	conn := dial()
	defer conn.Close()
	seq := uint64(0)
	send := func(c *transport.Conn, req transport.Request) {
		t.Helper()
		seq++
		req.Seq, req.Job = seq, jobInfo("placed", 1)
		if err := c.SendRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	call := func(req transport.Request) string {
		t.Helper()
		send(conn, req)
		resp, err := conn.RecvResponse()
		if err != nil || resp.Seq != seq {
			t.Fatalf("%v %s: reply %+v, err %v", req.Type, req.Path, resp, err)
		}
		return resp.Err
	}
	stripes := []string{"/d/f", "/d/sealed"}
	held := func() (sum int64) {
		for _, p := range stripes {
			fi, err := shard.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			sum += fi.Size
		}
		return sum
	}
	const chunk = 16 << 10
	data := make([]byte, chunk)
	for i := range data {
		data[i] = byte(i)
	}
	write := func(p string, off int64, layoutGen uint64) transport.Request {
		return transport.Request{Type: transport.MsgWrite, Path: p, Data: data, AppendAt: true, AppendOff: off, LayoutGen: layoutGen}
	}

	if e := call(transport.Request{Type: transport.MsgMkdir, Path: "/d"}); e != "" {
		t.Fatal(e)
	}
	for _, p := range stripes {
		if e := call(transport.Request{Type: transport.MsgCreate, Path: p, Stripes: 1, StripeSet: []string{self}}); e != "" {
			t.Fatal(e)
		}
		if e := call(write(p, 0, 1)); e != "" {
			t.Fatal(e)
		}
	}
	if _, _, err := shard.Seal("/d/sealed", 0); err != nil {
		t.Fatal(err)
	}
	if got := shard.Used(); got != 2*chunk {
		t.Fatalf("two landed chunks hold %d bytes of device, want %d", got, 2*chunk)
	}

	for _, c := range []struct {
		name    string
		req     transport.Request
		refused bool
	}{
		{"stale layout generation", write("/d/f", chunk, 2), true},
		{"sealed entry", write("/d/sealed", chunk, 1), true},
		{"torn append", write("/d/f", chunk/2, 1), true},
		{"whole-chunk duplicate", write("/d/f", 0, 1), false},
		{"parked out-of-order chunk", write("/d/f", 4*chunk, 1), false},
		{"missing path", write("/d/missing", 0, 0), true},
		{"directory path", write("/d", 0, 0), true},
		{"plain append to a missing path", transport.Request{Type: transport.MsgWrite, Path: "/d/missing", Data: data}, true},
	} {
		if e := call(c.req); (e != "") != c.refused {
			t.Errorf("%s: reply error %q, want refused=%v", c.name, e, c.refused)
		}
		// The worker gives the extent back when it recycles the request,
		// after the reply is on the wire.
		waitFor(t, 5*time.Second, c.name+": device back to the stripes' bytes", func() bool { return shard.Used() == held() })
	}

	// A connection closed before the worker draws its request: the
	// payload arrived whole, so the write lands and only the reply fails.
	before := held()
	fi, err := shard.Stat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	gone := dial()
	send(gone, write("/d/f", fi.Size, 1))
	gone.Close()
	waitFor(t, 5*time.Second, "the orphaned write to land", func() bool { return held() == before+chunk })
	waitFor(t, 5*time.Second, "device back to the stripes' bytes", func() bool { return shard.Used() == held() })
}
