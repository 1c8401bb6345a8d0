package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"themisio/internal/policy"
	"themisio/internal/sched"
)

func req(job string, bytes int64) *sched.Request {
	return &sched.Request{
		Job:   policy.JobInfo{JobID: job, UserID: "u-" + job, Nodes: 1},
		Op:    sched.OpWrite,
		Bytes: bytes,
	}
}

func jobs(ids ...string) []policy.JobInfo {
	var out []policy.JobInfo
	for _, id := range ids {
		out = append(out, policy.JobInfo{JobID: id, UserID: "u-" + id, Nodes: 1})
	}
	return out
}

func TestPopEmpty(t *testing.T) {
	th := New(policy.JobFair, 1)
	if th.Pop(0, nil) != nil {
		t.Fatal("empty pop should be nil")
	}
}

func TestPerJobFIFOOrder(t *testing.T) {
	th := New(policy.JobFair, 1)
	th.SetJobs(jobs("a"))
	for i := 0; i < 50; i++ {
		th.Push(req("a", int64(i)))
	}
	for i := 0; i < 50; i++ {
		r := th.Pop(0, nil)
		if r == nil || r.Bytes != int64(i) {
			t.Fatalf("pop %d: %+v — per-job order must be FIFO", i, r)
		}
	}
}

// Job-fair: service frequencies converge to equal shares when both jobs
// stay backlogged.
func TestJobFairFrequencies(t *testing.T) {
	th := New(policy.JobFair, 42)
	th.SetJobs(jobs("a", "b"))
	const n = 20000
	for i := 0; i < n; i++ {
		th.Push(req("a", 1))
		th.Push(req("b", 1))
	}
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[th.Pop(0, nil).Job.JobID]++
	}
	fa := float64(counts["a"]) / n
	if math.Abs(fa-0.5) > 0.002 {
		t.Fatalf("job a frequency = %.3f, want 0.5", fa)
	}
}

// Size-fair 4:1, verified via Served counters.
func TestSizeFairFrequencies(t *testing.T) {
	th := New(policy.SizeFair, 42)
	th.SetJobs([]policy.JobInfo{
		{JobID: "big", UserID: "u1", Nodes: 4},
		{JobID: "small", UserID: "u2", Nodes: 1},
	})
	const n = 20000
	for i := 0; i < n; i++ {
		th.Push(req("big", 1))
		th.Push(req("small", 1))
	}
	for i := 0; i < n; i++ {
		th.Pop(0, nil)
	}
	served := th.Served()
	ratio := float64(served["big"]) / float64(served["small"])
	if ratio < 3.98 || ratio > 4.02 {
		t.Fatalf("size-fair service ratio = %.2f, want ~4", ratio)
	}
}

// Opportunity fairness: a job with no backlog forfeits its draws; the
// backlogged job gets every cycle, and nothing is ever left idle while
// work is pending.
func TestWorkConserving(t *testing.T) {
	th := New(policy.JobFair, 7)
	th.SetJobs(jobs("a", "b"))
	for i := 0; i < 1000; i++ {
		th.Push(req("a", 1))
	}
	for i := 0; i < 1000; i++ {
		r := th.Pop(0, nil)
		if r == nil {
			t.Fatalf("pop %d returned nil with %d pending — not work-conserving", i, th.Pending())
		}
		if r.Job.JobID != "a" {
			t.Fatal("served a job with no backlog")
		}
	}
}

// A job pushing requests before the controller knows it is still served
// (from leftover cycles), never starved.
func TestUnknownJobNotStarved(t *testing.T) {
	th := New(policy.JobFair, 9)
	th.SetJobs(jobs("known"))
	th.Push(req("stranger", 1))
	// Known job has no backlog; the stranger must be served.
	r := th.Pop(0, nil)
	if r == nil || r.Job.JobID != "stranger" {
		t.Fatalf("stranger not served: %+v", r)
	}
	// Even with the known job backlogged, the stranger drains eventually.
	th.Push(req("stranger", 1))
	for i := 0; i < 100; i++ {
		th.Push(req("known", 1))
	}
	servedStranger := false
	for th.Pending() > 0 {
		if r := th.Pop(0, nil); r != nil && r.Job.JobID == "stranger" {
			servedStranger = true
		}
	}
	if !servedStranger {
		t.Fatal("stranger starved")
	}
}

// SetPolicy recompiles shares on the fly.
func TestSetPolicyRecompiles(t *testing.T) {
	th := New(policy.JobFair, 3)
	th.SetJobs([]policy.JobInfo{
		{JobID: "big", UserID: "u1", Nodes: 9},
		{JobID: "small", UserID: "u2", Nodes: 1},
	})
	if got := th.Share("big"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("job-fair share = %g", got)
	}
	th.SetPolicy(policy.SizeFair)
	if got := th.Share("big"); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("size-fair share = %g", got)
	}
	if th.Policy().String() != "size-fair" {
		t.Fatal("policy not switched")
	}
}

func TestAssignmentAndString(t *testing.T) {
	th := New(policy.JobFair, 3)
	if th.Assignment() != nil {
		t.Fatal("assignment before SetJobs should be nil")
	}
	th.SetJobs(jobs("a", "b"))
	a := th.Assignment()
	if a == nil || len(a.Segments()) != 2 {
		t.Fatalf("assignment = %+v", a)
	}
	if th.String() == "" || th.PendingOf("a") != 0 {
		t.Fatal("introspection broken")
	}
}

// Determinism: same seed, same push sequence → identical pop sequence.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		th := New(policy.JobFair, 123)
		th.SetJobs(jobs("a", "b", "c"))
		for i := 0; i < 300; i++ {
			th.Push(req([]string{"a", "b", "c"}[i%3], int64(i)))
		}
		var out []string
		for th.Pending() > 0 {
			out = append(out, th.Pop(0, nil).Job.JobID)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("diverged at %d: %s vs %s", i, x[i], y[i])
		}
	}
}

// Property: conservation — everything pushed is popped exactly once, for
// arbitrary interleavings of pushes across jobs.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		th := New(policy.SizeFair, seed)
		th.SetJobs([]policy.JobInfo{
			{JobID: "a", UserID: "u1", Nodes: 3},
			{JobID: "b", UserID: "u2", Nodes: 1},
			{JobID: "c", UserID: "u1", Nodes: 2},
		})
		pushed := 0
		popped := 0
		seen := map[int64]bool{}
		for i, op := range ops {
			switch op % 4 {
			case 0, 1, 2:
				r := req([]string{"a", "b", "c"}[op%3], int64(i))
				th.Push(r)
				pushed++
			case 3:
				if r := th.Pop(time.Duration(i), nil); r != nil {
					if seen[r.Bytes] {
						return false // double-served
					}
					seen[r.Bytes] = true
					popped++
				}
			}
		}
		for {
			r := th.Pop(0, nil)
			if r == nil {
				break
			}
			if seen[r.Bytes] {
				return false
			}
			seen[r.Bytes] = true
			popped++
		}
		return pushed == popped && th.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: long-run service frequencies track arbitrary size-fair
// weights to within a few requests (stream_test.go pins the bound).
func TestShareTrackingProperty(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		a := int(n1%16) + 1
		b := int(n2%16) + 1
		th := New(policy.SizeFair, int64(a*100+b))
		th.SetJobs([]policy.JobInfo{
			{JobID: "a", UserID: "u1", Nodes: a},
			{JobID: "b", UserID: "u2", Nodes: b},
		})
		const n = 8000
		for i := 0; i < n; i++ {
			th.Push(req("a", 1))
			th.Push(req("b", 1))
		}
		count := 0
		for i := 0; i < n; i++ {
			if th.Pop(0, nil).Job.JobID == "a" {
				count++
			}
		}
		want := float64(a) / float64(a+b)
		got := float64(count) / n
		return math.Abs(got-want) < 0.005
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ServedBytes charges each pop with the request's scheduling cost
// (payload bytes for data ops, MetaCost for metadata) — the raw
// material of the λ share ledger.
func TestServedBytesCounter(t *testing.T) {
	th := New(policy.JobFair, 1)
	th.SetJobs(jobs("a", "b"))
	th.Push(req("a", 1000))
	th.Push(req("a", 24))
	th.Push(req("b", 4096))
	th.Push(&sched.Request{Job: policy.JobInfo{JobID: "b"}, Op: sched.OpStat})
	for th.Pop(0, nil) != nil {
	}
	got := th.ServedBytes()
	if got["a"] != 1024 {
		t.Fatalf("a served bytes = %d, want 1024", got["a"])
	}
	if got["b"] != 4096+sched.MetaCost {
		t.Fatalf("b served bytes = %d, want %d", got["b"], 4096+sched.MetaCost)
	}
}
