package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/transport"
)

// Regression: the per-request hot path must not recompile policy. Before
// the epoch refactor every message — data, heartbeat, gossip — called
// sched.SetJobs, making compilation O(requests); now only the controller
// compiles, when the job table's active set changes. The compile count must
// therefore track job-set changes, not traffic volume. (The exact counts
// are pinned on virtual time by control's
// TestCompileCountFollowsJobSetChanges; this is the live half.)
func TestCompileCountScalesWithJobSetChanges(t *testing.T) {
	servers := startFabric(t, listen(t, 2))
	c, err := client.Dial(jobInfo("epoch-job", 4), addrsOf(servers))
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
	srv := startFabric(t, listen(t, 1), func(c *Config) {
		c.Policy, c.Workers, c.Lambda, c.OpDelay = policy.JobFair, 2, time.Minute, opDelay
	})[0]

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
	srv := startFabric(t, listen(t, 1), func(c *Config) { c.Workers = 16 })[0]

	const conns = 4
	const perConn = 100
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			raw, err := net.Dial("tcp", srv.Addr())
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

// At most Workers requests execute at once, whichever goroutine drew
// them: a connection reader draws only on a spare slot. Every execution
// sleeps at least OpDelay, so a flood of n requests cannot drain in less
// than n·OpDelay/Workers of wall time — a sleep only overshoots, so the
// bound cannot flake. The eight connections keep one
// request in flight each, so every reader finds its buffer empty after
// every frame: readers executing beside the drainers would beat the bound.
func TestWorkersBoundHoldsWithReaderDraws(t *testing.T) {
	const workers, conns, perConn = 2, 8, 50
	const delay = time.Millisecond
	srv := startFabric(t, listen(t, 1), func(c *Config) { c.Workers, c.OpDelay = workers, delay })[0]

	cs := make([]*transport.Conn, conns)
	for i := range cs {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = transport.NewConn(raw)
		defer cs[i].Close()
	}
	errs := make(chan error, conns)
	start := time.Now()
	for ci, conn := range cs {
		go func() {
			job := jobInfo(fmt.Sprintf("bound-%d", ci), 1)
			for i := 0; i < perConn; i++ {
				// One request in flight per connection: its reader's buffer
				// is empty after every frame, so it always asks for a slot.
				err := conn.SendRequest(&transport.Request{Type: transport.MsgStat, Seq: uint64(i + 1), Job: job, Path: "/"})
				var resp *transport.Response
				if err == nil {
					resp, err = conn.RecvResponse()
				}
				if err != nil {
					errs <- fmt.Errorf("conn %d request %d: %w", ci, i, err)
					return
				}
				resp.Release()
			}
			errs <- nil
		}()
	}
	for range cs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed, floor := time.Since(start), conns*perConn*delay/workers
	t.Logf("%d requests in %v (floor %v), %d drawn by readers", conns*perConn, elapsed, floor, srv.readerServed.Load())
	if elapsed < floor {
		t.Fatalf("%d requests of %v each drained in %v on %d workers: more than %d executed at once", conns*perConn, delay, elapsed, workers, workers)
	}
}

// No request is left waiting with a slot free, and no timer covers for
// one. In each round eight submitters push through enqueue while two
// holders keep taking a slot and giving it back, as drainers and readers
// do, so submitters keep finding every slot held and leave their request
// to a holder's re-check. The server is never served: slots need no
// goroutine, and once a round's submitters, holders and drainers are
// done the queues must be empty and every request served exactly once
// (serve observes each one's queue wait).
func TestEverySubmitServedWithoutATimer(t *testing.T) {
	const submitters, holders, rounds, each = 8, 2, 100, 50
	for _, workers := range []int{1, 2} {
		srv := New(listen(t, 1)[0], Config{Policy: policy.SizeFair, Workers: workers, Metrics: obsv.NewRegistry(), Quiet: true})
		served := func() (n int64) {
			for _, h := range srv.met.queueWait {
				n += h.Count()
			}
			return n
		}
		for round := 1; round <= rounds; round++ {
			var subs, held sync.WaitGroup
			stop := make(chan struct{})
			for range holders {
				held.Add(1)
				go func() {
					defer held.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if srv.takeSlot() {
							runtime.Gosched()
							srv.giveSlot()
						}
						runtime.Gosched()
					}
				}()
			}
			for i := range submitters {
				subs.Add(1)
				go func() {
					defer subs.Done()
					job := jobInfo(fmt.Sprintf("stress-%d", i), 1)
					for range each {
						srv.enqueue(&sched.Request{Job: job, Op: sched.OpStat, Arrive: srv.now()})
					}
				}()
			}
			subs.Wait()
			close(stop)
			held.Wait()
			srv.wg.Wait()
			if p, n := srv.sched.Pending(), served(); p != 0 || n != int64(round*submitters*each) {
				t.Fatalf("%d workers, round %d: %d requests left queued with every slot free, %d of %d served", workers, round, p, n, round*submitters*each)
			}
			if n := srv.spare.Load(); n != int64(workers) {
				t.Fatalf("%d workers, round %d: %d slots spare after every holder left", workers, round, n)
			}
		}
		srv.Close()
	}
}
