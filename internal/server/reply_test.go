package server

import (
	"bytes"
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
	srv := New(ln, Config{Policy: policy.SizeFair, Lambda: 50 * time.Millisecond, Backing: store, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()

	srv.stageMu.Lock() // the flush cannot finish until the test lets it
	held := true
	defer func() {
		if held {
			srv.stageMu.Unlock()
		}
	}()
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
	srv.stageMu.Unlock()
	held = false
	if resp, err = conn.RecvResponse(); err != nil || resp.Seq != 1 || resp.Err != "" {
		t.Fatalf("flush reply: %+v err=%v", resp, err)
	}
}
