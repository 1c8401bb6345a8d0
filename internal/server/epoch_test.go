package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// startServersCompiles is startServers but returns the *Server handles so
// tests can read scheduler counters.
func startServersCompiles(t *testing.T, n int, pol policy.Policy) ([]*Server, []string, func()) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	for i := range lns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		servers[i] = New(lns[i], Config{
			Policy: pol,
			Lambda: 50 * time.Millisecond,
			Join:   peers,
			Seed:   int64(i + 1),
			Quiet:  true,
		})
		go servers[i].Serve()
	}
	return servers, addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// Regression: the per-request hot path must not recompile policy. Before
// the epoch refactor every message — data, heartbeat, gossip — called
// sched.SetJobs, making compilation O(requests); now only the controller
// compiles, when the job table's active set changes. The compile count must
// therefore track job-set changes, not traffic volume. (The exact counts
// are pinned on virtual time by control's
// TestCompileCountFollowsJobSetChanges; this is the live half.)
func TestCompileCountScalesWithJobSetChanges(t *testing.T) {
	servers, addrs, stop := startServersCompiles(t, 2, policy.SizeFair)
	defer stop()
	c, err := client.Dial(jobInfo("epoch-job", 4), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f, err := c.Open("/epoch.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 400
	buf := make([]byte, 256)
	for i := 0; i < requests; i++ {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	// The last write's reply can beat the controller goroutine to the
	// compile its arrival asked for.
	waitFor(t, 5*time.Second, "every controller to compile", func() bool {
		for _, s := range servers {
			if s.Scheduler().Compiles() == 0 {
				return false
			}
		}
		return true
	})
	var served, compiles int64
	for _, s := range servers {
		served += s.Served()
		compiles += s.Scheduler().Compiles()
	}
	if served < requests {
		t.Fatalf("served %d < %d requests issued", served, requests)
	}
	// One job appearing (plus presence merges) should compile a handful
	// of times across both servers; per-request compilation would be
	// hundreds. Bound well below the request count and well above the
	// legitimate epoch churn.
	if compiles > served/10 {
		t.Fatalf("compiles = %d for %d served requests — compilation is on the hot path", compiles, served)
	}
	// A second burst of pure traffic (no job-set change) must not add
	// more than the odd λ-tick epoch (presence settling), regardless of
	// volume.
	before := compiles
	for i := 0; i < requests; i++ {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	var after int64
	for _, s := range servers {
		after += s.Scheduler().Compiles()
	}
	if after-before > 4 {
		t.Fatalf("steady traffic recompiled %d times", after-before)
	}
}

// A job that arrives mid-window against a saturating one is served its
// share from its first requests: its arrival is an edit in the job table,
// the reader that saw it nudges the controller, and the controller
// compiles it in. λ is a minute so that no tick can come to the rescue —
// with compiles only on the tick the newcomer was served nothing until
// the next one (the fallback pop serves the oldest queue first, and a
// saturating job's queue is never empty).
func TestLateJoinerServedBeforeNextTick(t *testing.T) {
	opDelay := 300 * time.Microsecond
	if raceEnabled {
		opDelay = 1500 * time.Microsecond // see TestLiveSizeFairService
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ln, Config{
		Policy:  policy.JobFair,
		Workers: 2,
		Lambda:  time.Minute,
		OpDelay: opDelay,
		Quiet:   true,
	})
	go srv.Serve()
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	flood := func(job string) {
		c, err := client.Dial(jobInfo(job, 1), []string{srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 8; w++ {
			f, err := c.Open(fmt.Sprintf("/%s-%d", job, w), true)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 512)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := f.Write(buf); err != nil {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() { defer wg.Done(); <-stop; c.Close() }()
	}
	served := func() (first, late int64) {
		m := srv.Scheduler().Served()
		return m["first"], m["late"]
	}

	flood("first")
	waitFor(t, 10*time.Second, "the first job to saturate the server", func() bool {
		f, _ := served()
		return f >= 300
	})
	flood("late")
	waitFor(t, 10*time.Second, "the late joiner's first served write", func() bool {
		_, l := served()
		return l > 20 // past its creates
	})
	f0, l0 := served()
	var f1, l1 int64
	waitFor(t, 20*time.Second, "1500 writes served with both jobs running", func() bool {
		f1, l1 = served()
		return (f1-f0)+(l1-l0) >= 1500
	})
	if rounds := srv.Cluster().GossipRounds(); rounds != 1 {
		t.Fatalf("%d gossip rounds: a λ tick ran inside the test", rounds)
	}
	share := float64(l1-l0) / float64((f1-f0)+(l1-l0))
	if share < 0.45 || share > 0.55 {
		t.Fatalf("late joiner served %d of %d writes (%.3f), want its job-fair half ±0.05", l1-l0, (f1-f0)+(l1-l0), share)
	}
}

// Regression for the cap-1 wake channel: concurrent pipelined floods
// from several connections must drain promptly even though many pushes
// race a single park/unpark cycle. With the old channel, concurrent
// pushes collapsed into one token and left workers parked on a 5ms
// timeout treadmill while queues held work.
func TestFloodFromFewConnsDrainsManyWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ln, Config{
		Policy:  policy.SizeFair,
		Workers: 16,
		Lambda:  50 * time.Millisecond,
		Quiet:   true,
	})
	go srv.Serve()
	defer srv.Close()

	const conns = 4
	const perConn = 100
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			conn := transport.NewConn(raw)
			defer conn.Close()
			job := jobInfo(fmt.Sprintf("flood-%d", ci), 1)
			// Pipeline the whole flood before reading any response: the
			// backlog lands in the scheduler faster than workers wake.
			for i := 0; i < perConn; i++ {
				req := &transport.Request{
					Type: transport.MsgWrite,
					Seq:  uint64(i + 1),
					Job:  job,
					Path: fmt.Sprintf("/flood-%d.bin", ci),
					Data: []byte("x"),
				}
				if i == 0 {
					req.Type = transport.MsgCreate
					req.Stripes = 1
				}
				if err := conn.SendRequest(req); err != nil {
					errs <- err
					return
				}
			}
			for i := 0; i < perConn; i++ {
				if _, err := conn.RecvResponse(); err != nil {
					errs <- fmt.Errorf("conn %d response %d: %w", ci, i, err)
					return
				}
			}
			errs <- nil
		}(ci)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("flood did not drain: served %d of %d", srv.Served(), conns*perConn)
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Served(); got != conns*perConn {
		t.Fatalf("served %d, want %d", got, conns*perConn)
	}
	// Not a benchmark, but with 400 one-byte writes and 16 workers the
	// drain should be near-instant; a wake-starvation regression shows up
	// as multi-second 5ms-timeout pacing.
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("drain took %v — workers are parking with work queued", e)
	}
}
