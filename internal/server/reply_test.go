package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// lockedBuffer is a log sink the test may read while the server writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A client that hangs up with replies outstanding fails every one of
// them — the first write error latches on the connection. The workers
// warn once per connection, not once per reply.
func TestReplyFailedLoggedOncePerConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	srv := New(ln, Config{
		Policy:  policy.SizeFair,
		Workers: 4,
		Lambda:  50 * time.Millisecond,
		Logger:  slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	go srv.Serve()
	defer srv.Close()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	job := jobInfo("hangup", 1)
	const unit, reads = 64 << 10, 400 // 25 MiB of replies nobody will read
	for i, req := range []*transport.Request{
		{Type: transport.MsgCreate, Path: "/hangup.bin", Stripes: 1},
		{Type: transport.MsgWrite, Path: "/hangup.bin", Data: make([]byte, unit)},
	} {
		req.Seq, req.Job = uint64(i+1), job
		if err := conn.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RecvResponse()
		if err != nil || resp.Err != "" {
			t.Fatalf("setup request %d: resp=%+v err=%v", i, resp, err)
		}
		resp.Release()
	}
	for i := 0; i < reads; i++ {
		if err := conn.SendRequest(&transport.Request{
			Type: transport.MsgRead, Seq: uint64(i + 3), Job: job, Path: "/hangup.bin", Size: unit,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Hang up once the workers sit blocked on the full socket with
	// replies still queued behind them.
	deadline := time.Now().Add(10 * time.Second)
	for stalled := false; !stalled; {
		if time.Now().After(deadline) {
			t.Fatalf("the socket never filled: served %d, pending %d", srv.Served(), srv.sched.Pending())
		}
		before := srv.Served()
		time.Sleep(20 * time.Millisecond)
		stalled = srv.Served() == before && srv.sched.Pending() > 0
	}
	conn.Close()
	for drained := false; !drained; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the dropped connection's replies never drained: pending %d", srv.sched.Pending())
		}
		srv.connMu.Lock()
		drained = len(srv.conns) == 0 && srv.sched.Pending() == 0
		srv.connMu.Unlock()
	}
	srv.Close() // waits for the workers' last sends
	if n := strings.Count(logs.String(), "reply failed"); n != 1 {
		t.Fatalf("%d \"reply failed\" warnings for one dropped connection, want 1:\n%s", n, logs.String())
	}
}

// A frame whose type no handler is assigned to — the reserved slots 0
// (once open), 4 (once close) and 11, a number past the last constant —
// is answered with an error reply, never with an empty success.
func TestUnknownRequestTypeRefused(t *testing.T) {
	addrs, stop := startServers(t, 1, policy.SizeFair)
	defer stop()
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	for i, typ := range []transport.MsgType{0, 4, 11, 200} {
		if err := conn.SendRequest(&transport.Request{
			Type: typ, Seq: uint64(i + 1), Job: jobInfo("raw", 1), Path: "/",
		}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RecvResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != uint64(i+1) || !strings.Contains(resp.Err, "no handler") {
			t.Errorf("type %v: reply seq %d err %q, want an error reply", typ, resp.Seq, resp.Err)
		}
		resp.Release()
	}
}

// A create whose layout placement could strand is refused and leaves no
// entry: a multi-stripe file with no recorded set (its other holders
// would be re-derived from whatever the placement is at read time), a
// set of the wrong width, one naming a server twice, or one that leaves
// out the receiving server. A width-1 create needs no set.
func TestStrandableCreateRefused(t *testing.T) {
	addrs, stop := startServers(t, 1, policy.SizeFair)
	defer stop()
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	self := addrs[0]
	seq := uint64(0)
	send := func(req *transport.Request) *transport.Response {
		t.Helper()
		seq++
		req.Seq, req.Job = seq, jobInfo("raw", 1)
		if err := conn.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RecvResponse()
		if err != nil || resp.Seq != seq {
			t.Fatalf("%+v: reply %+v, err %v", req, resp, err)
		}
		return resp
	}
	for i, tc := range []struct {
		stripes int
		set     []string
		ok      bool
	}{
		{stripes: 2},
		{stripes: 2, set: []string{self}},
		{stripes: 1, set: []string{self, "127.0.0.1:1"}},
		{stripes: 2, set: []string{self, self}},
		{stripes: 1, set: []string{"127.0.0.1:1"}},
		{stripes: 2, set: []string{"127.0.0.1:1", "127.0.0.1:2"}},
		{stripes: 1, ok: true},
		{stripes: 0, ok: true},
		{stripes: 1, set: []string{self}, ok: true},
		{stripes: 2, set: []string{"127.0.0.1:1", self}, ok: true},
	} {
		p := fmt.Sprintf("/create%d", i)
		resp := send(&transport.Request{Type: transport.MsgCreate, Path: p, Stripes: tc.stripes, StripeSet: tc.set})
		if (resp.Err == "") != tc.ok {
			t.Errorf("create %d stripes, set %v: err %q, want accepted %v", tc.stripes, tc.set, resp.Err, tc.ok)
		}
		resp.Release()
		resp = send(&transport.Request{Type: transport.MsgStat, Path: p})
		if (resp.Err == "") != tc.ok {
			t.Errorf("stat after create %d stripes, set %v: err %q, want an entry %v", tc.stripes, tc.set, resp.Err, tc.ok)
		}
		resp.Release()
	}
}

// A flush waits on a goroutine of its own: the connection that asked for
// it keeps answering control requests meanwhile — a client's membership
// refresh rides it under a reply deadline.
func TestFlushDoesNotParkTheConnection(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv := New(ln, Config{Policy: policy.SizeFair, Lambda: 50 * time.Millisecond, Backing: gatedStore{Store: store, gate: gate}, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	held := true
	defer func() {
		if held {
			close(gate)
		}
	}()
	// Bytes the flush cannot stage until the test opens the store.
	if _, err := srv.Shard().CreateStriped("/held", 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shard().Append("/held", []byte("unstaged")); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()

	for i, typ := range []transport.MsgType{transport.MsgFlush, transport.MsgClusterStatus} {
		if err := conn.SendRequest(&transport.Request{Type: typ, Seq: uint64(i + 1), Job: jobInfo("flush", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := conn.RecvResponse()
	if err != nil {
		t.Fatalf("no reply while a flush waits (the reader is parked in it): %v", err)
	}
	if resp.Seq != 2 {
		t.Fatalf("first reply has seq %d, want the membership answer (2) ahead of the held flush", resp.Seq)
	}
	close(gate)
	held = false
	if resp, err = conn.RecvResponse(); err != nil || resp.Seq != 1 || resp.Err != "" {
		t.Fatalf("flush reply: %+v err=%v", resp, err)
	}
}

// A migration install lands in a pending entry that no client request
// reaches: a client's positional append at the new layout generation is
// refused, and stat, read, readdir and unlink answer as if the entry
// were not there — beside an old-layout stripe of the same path, or with
// nothing beside it — until the commit swaps it in.
func TestPendingEntryUnreachable(t *testing.T) {
	addrs, stop := startServers(t, 1, policy.SizeFair)
	defer stop()
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	self, seq := addrs[0], uint64(0)
	send := func(req *transport.Request) *transport.Response {
		t.Helper()
		seq++
		req.Seq, req.Job = seq, jobInfo("raw", 1)
		if err := conn.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RecvResponse()
		if err != nil || resp.Seq != seq {
			t.Fatalf("%v %s: reply %+v, err %v", req.Type, req.Path, resp, err)
		}
		return resp
	}
	mustOK := func(resp *transport.Response) {
		t.Helper()
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	mustOK(send(&transport.Request{Type: transport.MsgMkdir, Path: "/d"}))
	mustOK(send(&transport.Request{Type: transport.MsgCreate, Path: "/d/held", Stripes: 1, StripeSet: []string{self}}))
	for _, p := range []string{"/d/held", "/d/new"} {
		mustOK(send(&transport.Request{Type: transport.MsgWrite, Path: p, Data: []byte("moved"),
			AppendAt: true, LayoutGen: 2, From: "127.0.0.1:1"}))
		resp := send(&transport.Request{Type: transport.MsgWrite, Path: p, Data: []byte("client"),
			AppendAt: true, AppendOff: 5, LayoutGen: 2})
		if !transport.IsStaleLayout(resp.Error()) && !transport.IsNotExist(resp.Error()) {
			t.Errorf("a client append at the pending generation of %s: err %q, want it refused", p, resp.Err)
		}
		stat := send(&transport.Request{Type: transport.MsgStat, Path: p})
		read := send(&transport.Request{Type: transport.MsgRead, Path: p, Size: 5})
		if p == "/d/new" && (!transport.IsNotExist(stat.Error()) || !transport.IsNotExist(read.Error())) {
			t.Errorf("stat and read of %s: %q, %q, want not-exist", p, stat.Err, read.Err)
		}
		if p == "/d/held" && (stat.Err != "" || stat.Size != 0 || stat.LayoutGen != 1 || read.Err != "" || read.N != 0) {
			t.Errorf("stat and read of %s: %+v, %+v, want the empty old-layout stripe", p, stat, read)
		}
		read.Release()
	}
	if resp := send(&transport.Request{Type: transport.MsgReaddir, Path: "/d"}); resp.Err != "" || strings.Join(resp.Names, ",") != "held" {
		t.Errorf("readdir lists %v (err %q), want only the live entry", resp.Names, resp.Err)
	}
	if resp := send(&transport.Request{Type: transport.MsgUnlink, Path: "/d/new"}); !transport.IsNotExist(resp.Error()) {
		t.Errorf("unlink of a pending entry: err %q, want not-exist", resp.Err)
	}
	for _, p := range []string{"/d/held", "/d/new"} {
		mustOK(send(&transport.Request{Type: transport.MsgMigrate, MigrateOp: transport.MigrateCommit, Path: p,
			Size: 5, Stripes: 1, StripeSet: []string{self}, LayoutGen: 2}))
		resp := send(&transport.Request{Type: transport.MsgRead, Path: p, Size: 5, LayoutGen: 2})
		if resp.Err != "" || string(resp.Data) != "moved" {
			t.Errorf("read %s after the commit: %q err %q", p, resp.Data, resp.Err)
		}
		resp.Release()
	}
	if resp := send(&transport.Request{Type: transport.MsgReaddir, Path: "/d"}); strings.Join(resp.Names, ",") != "held,new" {
		t.Errorf("readdir after the commits lists %v", resp.Names)
	}
}
