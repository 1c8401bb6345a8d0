package client

import (
	"cmp"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/policy"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// shortHeartbeat runs the test at a 25 ms heartbeat period — the cadence
// of the heartbeat goroutine and the reply deadline of control requests.
// Call it before Dial; the cleanup runs after the test's deferred Close.
func shortHeartbeat(t *testing.T) {
	t.Helper()
	old := heartbeatPeriod
	heartbeatPeriod = 25 * time.Millisecond
	t.Cleanup(func() { heartbeatPeriod = old })
}

// A server that accepts connections and never answers — a stopped
// process, a hung disk — costs the client that server and nothing else:
// the membership refresh that asked it gives up after a heartbeat period
// and fails it over, and the heartbeats to the healthy servers go on, so
// an idle job stays registered there.
func TestMuteServerDoesNotStopHeartbeats(t *testing.T) {
	shortHeartbeat(t)
	// The refresh asks the first server in address order: that one is the
	// mute one.
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	slices.SortFunc(lns, func(a, b net.Listener) int { return cmp.Compare(a.Addr().String(), b.Addr().String()) })
	mute := lns[0]
	defer mute.Close()
	go func() {
		for {
			raw, err := mute.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { raw.Close() }) // held open, never read, never answered
		}
	}()
	const timeout = 250 * time.Millisecond // ten heartbeats
	live := server.New(lns[1], server.Config{
		Policy: policy.SizeFair, Lambda: 10 * time.Millisecond, HeartbeatTimeout: timeout, Quiet: true,
	})
	go live.Serve()
	defer live.Close()

	job := testJob("idle")
	c, err := DialOpts(job, []string{mute.Addr().String(), live.Addr()}, Options{ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	registered := func() bool {
		return live.Scheduler().Share(job.JobID) > 0
	}
	for deadline := time.Now().Add(5 * time.Second); !registered(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the live server never saw the job")
		}
	}
	// The job does no I/O: only heartbeats keep it in the live server's
	// table, and four timeouts are forty of them.
	for end := time.Now().Add(4 * timeout); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if !registered() {
			t.Fatal("the live server expired the idle job: the heartbeat goroutine is parked on the mute server")
		}
	}
	if got := c.Servers(); !slices.Equal(got, []string{live.Addr()}) {
		t.Fatalf("after %v the client's servers are %v, want the mute one failed over", 4*timeout, got)
	}
}

// Readdir, Mkdir and Flush ask their servers in one concurrent round:
// each of three servers holds its reply until all three have the request,
// which a client that visits them one after another never delivers.
func TestFanOutIsConcurrent(t *testing.T) {
	barrier := map[transport.MsgType]*sync.WaitGroup{
		transport.MsgMkdir: {}, transport.MsgReaddir: {}, transport.MsgFlush: {},
	}
	const n = 3
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startScriptedServer(t, func(req *transport.Request) *transport.Response {
			all := barrier[req.Type]
			if all == nil {
				return nil
			}
			all.Done()
			all.Wait()
			return &transport.Response{Names: []string{req.Path + "/x"}}
		}).addr
	}
	for _, all := range barrier {
		all.Add(n)
	}
	c, err := DialOpts(testJob("fan"), addrs, Options{ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.MkdirContext(ctx, "/d"); err != nil {
		t.Fatalf("Mkdir: %v (the servers were asked one after another)", err)
	}
	if names, err := c.ReaddirContext(ctx, "/d"); err != nil || !slices.Equal(names, []string{"/d/x"}) {
		t.Fatalf("Readdir = %v, %v (the servers were asked one after another)", names, err)
	}
	if err := c.FlushContext(ctx); err != nil {
		t.Fatalf("Flush: %v (the servers were asked one after another)", err)
	}
}

// The stat of a path its ring owner does not hold asks every other
// server once, in one round — and not at all once the caller has given
// up: a ctx that dies with the owner's answer ends the stat as canceled,
// and the other servers never see it.
func TestStatOfMissingPathHonorsCancellation(t *testing.T) {
	const n = 3
	var stats [n]atomic.Int64
	var onOwner atomic.Pointer[context.CancelFunc] // runs as the owner answers
	var owner atomic.Int64                         // its index
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startScriptedServer(t, func(req *transport.Request) *transport.Response {
			if req.Type != transport.MsgStat {
				return nil
			}
			stats[i].Add(1)
			if cancel := onOwner.Load(); cancel != nil && int(owner.Load()) == i {
				(*cancel)()
			}
			return &transport.Response{Err: "stat: no such file or directory"}
		}).addr
	}
	c, err := DialOpts(testJob("gone"), addrs, Options{ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	own, _ := c.ring.Lookup("/missing")
	owner.Store(int64(slices.Index(addrs, own)))
	// counts settles the servers — a Mkdir round trip on each connection,
	// behind any stat already sent on it — and reads the counters.
	counts := func() (out [n]int64) {
		t.Helper()
		if err := c.Mkdir("/settle"); err != nil {
			t.Fatal(err)
		}
		for i := range stats {
			out[i] = stats[i].Load()
		}
		return out
	}

	if _, _, err := c.Stat("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat of a missing path: %v, want ErrNotExist", err)
	}
	if got := counts(); got != [n]int64{1, 1, 1} {
		t.Fatalf("stat requests per server %v, want every server asked once", got)
	}

	// Under a dead ctx the sweep sends nothing.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.statAny(dead, "/missing", own); !errors.Is(err, ErrCanceled) {
		t.Fatalf("statAny under a dead ctx: %v, want ErrCanceled", err)
	}
	if got := counts(); got != [n]int64{1, 1, 1} {
		t.Fatalf("stat requests per server %v after a canceled sweep, want none sent", got)
	}

	// End to end: the ctx dies as the owner answers not-exist.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	onOwner.Store(&cancel)
	if _, _, err := c.StatContext(ctx, "/missing"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Stat canceled at the owner's answer: %v, want ErrCanceled", err)
	}
	want := [n]int64{1, 1, 1}
	want[owner.Load()]++
	if got := counts(); got != want {
		t.Fatalf("stat requests per server %v, want %v: only the owner asked again", got, want)
	}
}
