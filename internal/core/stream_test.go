package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"themisio/internal/policy"
	"themisio/internal/sched"
)

// discrepancyBound is what the token sequence guarantees a backlogged
// job: after any number of pops its served count is within this many
// requests of its share of them (measured worst over the sets below:
// 4.37; independent draws reach 358).
const discrepancyBound = 8

// sizeFair returns size-fair jobs j0, j1, … weighted by nodes, each under
// its own user.
func sizeFair(nodes ...int) []policy.JobInfo {
	out := make([]policy.JobInfo, len(nodes))
	for i, n := range nodes {
		out[i] = policy.JobInfo{JobID: fmt.Sprintf("j%d", i), UserID: fmt.Sprintf("u%d", i), Nodes: n}
	}
	return out
}

// popRefill pops one request and pushes it back on its job's queue, so a
// job that starts backlogged stays backlogged however long the run.
func popRefill(t *testing.T, th *Themis, allow sched.AllowFunc) string {
	t.Helper()
	r := th.Pop(0, allow)
	if r == nil {
		t.Fatalf("pop returned nil with %d pending", th.Pending())
	}
	th.Push(r)
	return r.Job.JobID
}

// Discrepancy and bounded wait: over 40 random size-fair job sets of
// 2–16 jobs, all backlogged, every job's served count stays within
// discrepancyBound requests of n·w at every prefix n ≤ 100 000, and no
// job goes more than ⌈2/w⌉+1 pops unserved.
func TestDiscrepancyBoundedWait(t *testing.T) {
	sets, pops := 40, 100000
	if testing.Short() {
		sets = 10 // the race detector makes a set cost 0.6 s
	}
	rs := uint64(20)
	rnd := func(n int) int {
		rs += 0x9e3779b97f4a7c15
		return int(mix64(rs) % uint64(n))
	}
	worstDev, worstWait := 0.0, 0.0
	for set := 0; set < sets; set++ {
		nodes := make([]int, 2+rnd(15))
		total := 0
		for i := range nodes {
			nodes[i] = 1 + rnd(16)
			total += nodes[i]
		}
		js := sizeFair(nodes...)
		th := New(policy.SizeFair, int64(set))
		th.SetJobs(js)
		idx := make(map[string]int, len(js))
		w := make([]float64, len(js))
		for i, j := range js {
			idx[j.JobID] = i
			w[i] = float64(nodes[i]) / float64(total)
			th.Push(req(j.JobID, 1))
		}
		served := make([]int, len(js))
		last := make([]int, len(js)) // pop index that last served the job
		for n := 1; n <= pops; n++ {
			j := idx[popRefill(t, th, nil)]
			served[j]++
			last[j] = n
			for i := range js {
				if dev := math.Abs(float64(served[i]) - float64(n)*w[i]); dev > discrepancyBound {
					t.Fatalf("set %d (nodes %v): job %d served %d of %d pops, share %.4f: off by %.2f requests",
						set, nodes, i, served[i], n, w[i], dev)
				} else if dev > worstDev {
					worstDev = dev
				}
				if wait := n - last[i]; float64(wait) > math.Ceil(2/w[i])+1 {
					t.Fatalf("set %d (nodes %v): job %d with share %.4f unserved for %d pops at pop %d",
						set, nodes, i, w[i], wait, n)
				} else if r := float64(wait) * w[i]; r > worstWait {
					worstWait = r
				}
			}
		}
	}
	t.Logf("worst |served − n·w| = %.2f requests, worst wait = %.2f/w pops", worstDev, worstWait)
}

// Reclaim splits proportionally: with jobs 2:1:1 and the last one idle,
// its quarter goes to the other two in their 2:1 ratio. This is the test
// that fails (0.824 / 0.176) if the conditioned redraw takes its points
// from the primary counter. allow != nil is the simulator's path, where
// every draw is a conditioned one.
func TestReclaimSplit(t *testing.T) {
	const pops = 20000
	always := func(sched.Op) bool { return true }
	for _, seed := range []int64{1, 2, 3, 42} {
		for name, allow := range map[string]sched.AllowFunc{"live": nil, "sim": always} {
			th := New(policy.SizeFair, seed)
			th.SetJobs(sizeFair(2, 1, 1))
			th.Push(req("j0", 1))
			th.Push(req("j1", 1))
			served := map[string]int{}
			for i := 0; i < pops; i++ {
				served[popRefill(t, th, allow)]++
			}
			a, b := float64(served["j0"])/pops, float64(served["j1"])/pops
			if math.Abs(a-2.0/3) > 0.003 || math.Abs(b-1.0/3) > 0.003 {
				t.Errorf("seed %d %s: served %.4f / %.4f, want 0.6667 / 0.3333", seed, name, a, b)
			}
			// Draws counts both streams: one primary draw per live pop, one
			// conditioned draw per miss (a quarter of them) or per sim pop.
			primary, cond := th.draws.ctr.Load(), th.redraws.ctr.Load()
			if th.Draws() != primary+cond {
				t.Errorf("seed %d %s: Draws() = %d, streams drew %d + %d", seed, name, th.Draws(), primary, cond)
			}
			wantPrimary, wantCond := uint64(pops), float64(pops)/4
			if allow != nil {
				wantPrimary, wantCond = 0, pops
			}
			if primary != wantPrimary || math.Abs(float64(cond)-wantCond) > discrepancyBound {
				t.Errorf("seed %d %s: %d primary + %d conditioned draws, want %d + %.0f", seed, name, primary, cond, wantPrimary, wantCond)
			}
		}
	}
}

// A saturated run costs exactly one draw per served request, as it did
// with the random stream: the optimistic draw always lands on a
// backlogged job and the conditioned stream is never consulted.
func TestDrawsPerServedSaturated(t *testing.T) {
	th := New(policy.SizeFair, 5)
	th.SetJobs(sizeFair(3, 1))
	th.Push(req("j0", 1))
	th.Push(req("j1", 1))
	const pops = 10000
	for i := 0; i < pops; i++ {
		popRefill(t, th, nil)
	}
	if th.Draws() != pops || th.redraws.ctr.Load() != 0 {
		t.Fatalf("%d draws (%d conditioned) for %d served, want one each and none conditioned", th.Draws(), th.redraws.ctr.Load(), pops)
	}
}

// Concurrent pops consume the same points as serial ones: eight workers
// popping 100 000 requests between them serve each once and leave every
// job within the serial bound (+8 for pops in flight at the end) of N·w.
func TestConcurrentDiscrepancy(t *testing.T) {
	const workers, pops = 8, 100000
	nodes := []int{5, 3, 2, 1}
	js := sizeFair(nodes...)
	th := New(policy.SizeFair, 77)
	th.SetJobs(js)
	id := int64(0)
	for i := 0; i < pops; i++ { // deeper than any job can drain
		for _, j := range js {
			th.Push(req(j.JobID, id))
			id++
		}
	}
	seen := make([]atomic.Bool, id)
	var left atomic.Int64
	left.Store(pops)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				r := th.Pop(0, nil)
				if r == nil {
					t.Error("pop returned nil with backlog")
					return
				}
				if seen[r.Bytes].Swap(true) {
					t.Errorf("request %d served twice", r.Bytes)
				}
			}
		}()
	}
	wg.Wait()
	if got := th.Pending(); got != int(id)-pops {
		t.Fatalf("pending = %d after %d of %d popped", got, pops, id)
	}
	served := th.Served()
	for i, j := range js {
		want := pops * float64(nodes[i]) / 11
		if dev := math.Abs(float64(served[j.JobID]) - want); dev > discrepancyBound+8 {
			t.Errorf("job %s served %d, want %.1f ± %d", j.JobID, served[j.JobID], want, discrepancyBound+8)
		}
	}
}
