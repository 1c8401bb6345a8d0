package control

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"themisio/internal/core"
	"themisio/internal/jobtable"
	"themisio/internal/policy"
	"themisio/internal/sched"
)

func job(id, user string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: user, GroupID: "g", Nodes: nodes}
}

func newLoop(pol policy.Policy) (*Loop, *core.Themis) {
	th := core.New(pol, 1)
	return New(jobtable.New("s0", 0), th), th
}

// submit follows the rule the daemon's readers and the simulator's
// submit follow: push, then ask for a compile if the table moved.
func submit(l *Loop, j policy.JobInfo, n int, now time.Duration) {
	for i := 0; i < n; i++ {
		l.Submit(&sched.Request{Job: j, Op: sched.OpWrite, Bytes: 1 << 20, Arrive: now}, now)
		if l.Stale() {
			l.Compile(now)
		}
	}
}

// The drift this package was written to end: a job that arrives between
// two λ steps is in the assignment by its first request, so against a
// saturating job it is served its job-fair half of the very next draws —
// not nothing until the next Tick. 8 is the equidistributed sequence's
// bound on a job's distance from its share (core's TestDiscrepancy).
func TestLateJoinerServedBeforeNextTick(t *testing.T) {
	l, th := newLoop(policy.JobFair)
	a, b := job("a", "ua", 1), job("b", "ub", 1)
	submit(l, a, 2000, 0)
	l.Tick(500 * time.Millisecond)
	submit(l, b, 2000, 600*time.Millisecond)

	const pops = 1000
	for i := 0; i < pops; i++ {
		if th.Pop(700*time.Millisecond, nil) == nil {
			t.Fatalf("pop %d returned nothing with both jobs backlogged", i)
		}
	}
	if got := th.Served()["b"]; math.Abs(float64(got)-pops/2) > 8 {
		t.Fatalf("late joiner served %d of %d pops, want %d±8", got, pops, pops/2)
	}
}

// Compiles are O(job-set changes): any number of requests from one job
// cost the one compile that admitted it, and steps with no change cost
// none.
func TestCompileCountFollowsJobSetChanges(t *testing.T) {
	l, th := newLoop(policy.SizeFair)
	a := job("a", "ua", 4)
	for i := 0; i < 400; i++ {
		l.Submit(&sched.Request{Job: a, Op: sched.OpWrite, Bytes: 256}, 0)
	}
	if !l.Stale() {
		t.Fatal("a new job must leave the loop stale")
	}
	l.Compile(0)
	if l.Stale() {
		t.Fatal("still stale after Compile")
	}
	if got := th.Compiles(); got != 1 {
		t.Fatalf("400 submits of one job and one Compile: %d compiles, want 1", got)
	}
	for i := 1; i <= 5; i++ {
		now := time.Duration(i) * 500 * time.Millisecond
		submit(l, a, 100, now)
		l.Tick(now)
	}
	if got := th.Compiles(); got != 1 {
		t.Fatalf("steady traffic and five Ticks recompiled: %d compiles, want 1", got)
	}
	// A second job is one more compile, and a delta one: Refresh hands
	// over just the arrival.
	submit(l, job("b", "ub", 1), 1, 3*time.Second)
	if full, delta := th.CompilesFull(), th.CompilesDelta(); full != 1 || delta != 1 {
		t.Fatalf("second job: %d full + %d delta compiles, want 1 + 1", full, delta)
	}
	// Decay has no writer to record it; the λ step's Refresh finds it.
	l.Tick(3*time.Second + 2*jobtable.DefaultTimeout)
	if got := th.Compiles(); got != 3 {
		t.Fatalf("both jobs timed out: %d compiles, want 3", got)
	}
	if n := th.Assignment().Len(); n != 0 {
		t.Fatalf("%d jobs still hold tokens after timing out", n)
	}
}

// Every change reaches the scheduler exactly once. Over seeded random
// churn through the loop — submits, heartbeats, merged peer rows,
// failover scrubs, early expiries, and λ steps with their expiry and decay —
// the delta-compiled scheduler's shares equal those of a from-scratch
// compile of the table's active set after every step, bit for bit.
func TestDeltaCompilesMatchFullCompile(t *testing.T) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%d", i)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := jobtable.New("s0", time.Second)
		th := core.New(policy.UserThenSizeFair, 1)
		l := New(tab, th)
		var now time.Duration
		for step := 0; step < 200; step++ {
			now += time.Duration(rng.Intn(200)) * time.Millisecond
			j := job(ids[rng.Intn(len(ids))], fmt.Sprintf("u%d", rng.Intn(3)), 1+rng.Intn(4))
			switch rng.Intn(6) {
			case 0, 1:
				l.Submit(&sched.Request{Job: j, Op: sched.OpWrite, Bytes: 1}, now)
			case 2:
				tab.Heartbeat(j, now)
			case 3:
				tab.Merge([]jobtable.Entry{{Info: j, Last: now, Servers: map[string]bool{"s1": true}}}, now)
			case 4:
				tab.DropServer("s1")
			case 5:
				tab.Expire(now, time.Duration(rng.Intn(2000))*time.Millisecond)
			}
			switch {
			case rng.Intn(4) == 0:
				l.Tick(now)
			case l.Stale():
				l.Compile(now)
			default:
				continue
			}
			full := core.New(policy.UserThenSizeFair, 1)
			full.SetJobs(tab.Active(now))
			for _, id := range ids {
				if got, want := th.Share(id), full.Share(id); got != want {
					t.Fatalf("seed %d step %d: %s holds share %v, a full compile gives %v", seed, step, id, got, want)
				}
			}
		}
	}
}

// A policy version is applied by the step after it is handed over, once,
// and the equal-epoch tie-break winner replaces it.
func TestOfferedPolicyAppliedByNextStep(t *testing.T) {
	l, th := newLoop(policy.JobFair)
	submit(l, job("a", "ua", 3), 1, 0)
	if str, e := l.AppliedPolicy(); str != "job-fair" || e != 0 {
		t.Fatalf("boot policy = %q/%d, want job-fair/0", str, e)
	}
	if !l.OfferPolicy(policy.SizeFair, 1) {
		t.Fatal("a new epoch must be news")
	}
	if l.OfferPolicy(policy.SizeFair, 1) {
		t.Fatal("the version already handed over is not news")
	}
	if str, _ := l.AppliedPolicy(); str != "job-fair" {
		t.Fatalf("applied %q before any step ran", str)
	}
	l.Tick(time.Second)
	if str, e := l.AppliedPolicy(); str != "size-fair" || e != 1 {
		t.Fatalf("applied = %q/%d, want size-fair/1", str, e)
	}
	if l.OfferPolicy(policy.SizeFair, 1) {
		t.Fatal("the applied version is not news")
	}
	if !l.OfferPolicy(policy.UserThenSizeFair, 1) {
		t.Fatal("a different string at the same epoch must be news")
	}
	l.Compile(2 * time.Second)
	if got := th.Policy(); !got.Equal(policy.UserThenSizeFair) {
		t.Fatalf("scheduler enforcing %v, want user-then-size-fair", got)
	}
}

// The λ step closes a share window against the shares the compile before
// it put in force.
func TestTickRollsLedgerAfterCompile(t *testing.T) {
	l, th := newLoop(policy.SizeFair)
	big, small := job("big", "u1", 3), job("small", "u2", 1)
	submit(l, big, 400, 0)
	submit(l, small, 400, 0)
	for i := 0; i < 400; i++ {
		th.Pop(0, nil)
	}
	l.Tick(500 * time.Millisecond)
	rep := l.Ledger().Report()
	if len(rep) == 0 {
		t.Fatal("no share report after a busy window")
	}
	for _, e := range rep {
		if e.Kind == "job" && math.Abs(e.Residual()) > 0.02 {
			t.Errorf("%s measured %.3f, compiled %.3f", e.ID, e.Measured, e.Compiled)
		}
	}
}

// The daemon's shape: readers submit, heartbeat and merge peer snapshots
// and apply the nudge rule from many goroutines while one owner compiles,
// ticks and swaps policy. Every job a reader introduced, by any of the
// three, is in the assignment once the owner has answered the last nudge.
func TestConcurrentSubmittersOneOwner(t *testing.T) {
	th := core.New(policy.JobFair, 1)
	tab := jobtable.New("s0", 0)
	l := New(tab, th)
	const readers, jobsEach = 4, 25
	nudge := make(chan struct{}, 1)
	nudgeIfStale := func() {
		if l.Stale() {
			select {
			case nudge <- struct{}{}:
			default:
			}
		}
	}
	done := make(chan struct{})
	var owner sync.WaitGroup
	owner.Add(1)
	go func() {
		defer owner.Done()
		for i := 1; ; i++ {
			now := time.Duration(i) * time.Millisecond
			select {
			case <-nudge:
				l.Compile(now)
			case <-done:
				l.Compile(now)
				return
			default:
				l.OfferPolicy(policy.SizeFair, uint64(i%3))
				l.Tick(now)
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				tab.Heartbeat(job(fmt.Sprintf("r%d-h%d", r, i), "u", 1), 0)
				nudgeIfStale()
				peer := jobtable.Entry{Info: job(fmt.Sprintf("r%d-p%d", r, i), "u", 1), Servers: map[string]bool{"s1": true}}
				tab.Merge([]jobtable.Entry{peer}, 0)
				nudgeIfStale()
				j := job(fmt.Sprintf("r%d-j%d", r, i), "u", 1)
				for k := 0; k < 4; k++ {
					l.Submit(&sched.Request{Job: j, Op: sched.OpWrite, Bytes: 1}, 0)
					nudgeIfStale()
					l.AppliedPolicy()
					l.Ledger().Report()
					th.Pop(0, nil)
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	owner.Wait()
	if l.Stale() {
		t.Fatal("stale after the owner's last compile")
	}
	if n := th.Assignment().Len(); n != 3*readers*jobsEach {
		t.Fatalf("%d jobs hold tokens, want %d", n, 3*readers*jobsEach)
	}
}

// A baseline scheduler has none of the optional capabilities: the loop
// full-compiles it, ignores policy versions and reports no shares.
func TestBaselineScheduler(t *testing.T) {
	l := New(jobtable.New("s0", 0), sched.NewFIFO())
	submit(l, job("a", "ua", 1), 3, 0)
	if l.OfferPolicy(policy.SizeFair, 1) {
		t.Fatal("FIFO accepted a policy version")
	}
	l.Tick(time.Second)
	if l.Stale() {
		t.Fatal("stale after Tick")
	}
	if rep := l.Ledger().Report(); rep != nil {
		t.Fatalf("FIFO reported shares: %v", rep)
	}
}
