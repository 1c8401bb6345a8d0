package bb

import (
	"testing"
	"time"

	"themisio/internal/core"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

func themisFactory(pol policy.Policy, seed int64) func(int, float64) sched.Scheduler {
	return func(i int, capacity float64) sched.Scheduler {
		return core.New(pol, seed+int64(i))
	}
}

func job(id, user, group string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: user, GroupID: group, Nodes: nodes}
}

// One saturating job on one server should reach the combined device
// bandwidth (~22 GB/s) doing write/read cycles.
func TestSingleJobSaturatesDevice(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 1)})
	c.AddJob(JobSpec{
		Job:   job("j1", "u1", "g1", 4),
		Procs: 224,
		MakeStream: func(int) workload.Stream {
			return workload.WriteReadCycle(10*workload.MB, workload.MB)
		},
	})
	c.Run(10 * time.Second)
	rate := c.Meter().MedianRate("j1", 2*time.Second, 10*time.Second)
	if rate < 20e9 || rate > 22.5e9 {
		t.Fatalf("single-job rate = %.2f GB/s, want ~22", rate/1e9)
	}
}

// A write-only job is limited by the per-direction link (~11.7 GB/s),
// not the device total.
func TestUnidirectionalLinkLimit(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 1)})
	c.AddJob(JobSpec{
		Job:   job("j1", "u1", "g1", 1),
		Procs: 56,
		MakeStream: func(int) workload.Stream {
			return workload.IORLoop(sched.OpWrite, workload.MB)
		},
	})
	c.Run(10 * time.Second)
	rate := c.Meter().MedianRate("j1", 2*time.Second, 10*time.Second)
	if rate < 11e9 || rate > 12e9 {
		t.Fatalf("unidirectional rate = %.2f GB/s, want ~11.7", rate/1e9)
	}
}

// Size-fair: a 4-node job and a 1-node job competing on one server should
// split throughput ~4:1 (Figure 8a).
func TestSizeFairRatio(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.SizeFair, 7)})
	mk := func(int) workload.Stream { return workload.WriteReadCycle(10*workload.MB, workload.MB) }
	c.AddJob(JobSpec{Job: job("j1", "u1", "g1", 4), Procs: 224, MakeStream: mk})
	c.AddJob(JobSpec{Job: job("j2", "u2", "g1", 1), Procs: 56, MakeStream: mk})
	c.Run(20 * time.Second)
	r1 := c.Meter().MedianRate("j1", 5*time.Second, 20*time.Second)
	r2 := c.Meter().MedianRate("j2", 5*time.Second, 20*time.Second)
	ratio := r1 / r2
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("size-fair ratio = %.2f (%.1f vs %.1f GB/s), want ~4", ratio, r1/1e9, r2/1e9)
	}
	total := r1 + r2
	if total < 20e9 {
		t.Fatalf("sharing total = %.2f GB/s, want ~22 (opportunity fairness keeps utilization)", total/1e9)
	}
}

// Job-fair: same pair, ~1:1 split (Figure 8b).
func TestJobFairRatio(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 7)})
	mk := func(int) workload.Stream { return workload.WriteReadCycle(10*workload.MB, workload.MB) }
	c.AddJob(JobSpec{Job: job("j1", "u1", "g1", 4), Procs: 224, MakeStream: mk})
	c.AddJob(JobSpec{Job: job("j2", "u2", "g1", 1), Procs: 56, MakeStream: mk})
	c.Run(20 * time.Second)
	r1 := c.Meter().MedianRate("j1", 5*time.Second, 20*time.Second)
	r2 := c.Meter().MedianRate("j2", 5*time.Second, 20*time.Second)
	ratio := r1 / r2
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("job-fair ratio = %.2f (%.1f vs %.1f GB/s), want ~1", ratio, r1/1e9, r2/1e9)
	}
}

// Opportunity fairness: when one job stops, the survivor reclaims the
// full device (§5.3.1 — "applications will get the same amount of I/O
// resources as they would when running without ThemisIO").
func TestOpportunityFairnessReclaim(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 3)})
	mk := func(int) workload.Stream { return workload.WriteReadCycle(10*workload.MB, workload.MB) }
	c.AddJob(JobSpec{Job: job("j1", "u1", "g1", 1), Procs: 56, MakeStream: mk})
	c.AddJob(JobSpec{Job: job("j2", "u2", "g1", 1), Procs: 56, MakeStream: mk, Stop: 10 * time.Second})
	c.Run(25 * time.Second)
	shared := c.Meter().MedianRate("j1", 3*time.Second, 9*time.Second)
	alone := c.Meter().MedianRate("j1", 15*time.Second, 25*time.Second)
	if shared > 0.6*alone {
		t.Fatalf("shared rate %.1f GB/s should be ~half of alone rate %.1f GB/s", shared/1e9, alone/1e9)
	}
	if alone < 20e9 {
		t.Fatalf("after j2 stops, j1 should reclaim full device; got %.1f GB/s", alone/1e9)
	}
}

// FIFO head-of-line blocking: a job keeping many more requests in flight
// dominates a modest job (§2.2.1) — the interference ThemisIO removes.
func TestFIFOHeadOfLineBlocking(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: func(int, float64) sched.Scheduler { return sched.NewFIFO() }})
	mk := func(int) workload.Stream { return workload.WriteReadCycle(10*workload.MB, workload.MB) }
	// Bursty small job: 56 procs at depth 8. Modest job: 8 procs depth 1.
	c.AddJob(JobSpec{Job: job("bursty", "u1", "g1", 1), Procs: 56, QueueDepth: 8, MakeStream: mk})
	c.AddJob(JobSpec{Job: job("modest", "u2", "g1", 4), Procs: 8, QueueDepth: 1, MakeStream: mk})
	c.Run(10 * time.Second)
	rb := c.Meter().MedianRate("bursty", 2*time.Second, 10*time.Second)
	rm := c.Meter().MedianRate("modest", 2*time.Second, 10*time.Second)
	if rb < 10*rm {
		t.Fatalf("FIFO should let the bursty job dominate: bursty %.1f GB/s vs modest %.2f GB/s", rb/1e9, rm/1e9)
	}
}

// λ-delayed fairness: two servers, job1 active on both, jobs 2 and 3 each
// on one. Before the first all-gather servers over-serve job1; after it,
// presence deweighting restores the global 2:1:1 (size 16:8:8) split.
func TestLambdaDelayedGlobalFairness(t *testing.T) {
	c := NewCluster(Config{
		Servers:  2,
		NewSched: themisFactory(policy.SizeFair, 11),
		Lambda:   200 * time.Millisecond,
	})
	mk := func(int) workload.Stream { return workload.WriteReadCycle(10*workload.MB, workload.MB) }
	c.AddJob(JobSpec{Job: job("j1", "u1", "g1", 16), Procs: 64, MakeStream: mk, Targets: []int{0, 1}})
	c.AddJob(JobSpec{Job: job("j2", "u2", "g1", 8), Procs: 32, MakeStream: mk, Targets: []int{0}})
	c.AddJob(JobSpec{Job: job("j3", "u3", "g1", 8), Procs: 32, MakeStream: mk, Targets: []int{1}})
	c.Run(20 * time.Second)
	r1 := c.Meter().MedianRate("j1", 5*time.Second, 20*time.Second)
	r2 := c.Meter().MedianRate("j2", 5*time.Second, 20*time.Second)
	r3 := c.Meter().MedianRate("j3", 5*time.Second, 20*time.Second)
	tot := r1 + r2 + r3
	s1, s2, s3 := r1/tot, r2/tot, r3/tot
	if s1 < 0.44 || s1 > 0.56 {
		t.Fatalf("job1 global share = %.2f, want ~0.50 (got %.2f/%.2f/%.2f)", s1, s1, s2, s3)
	}
	if s2 < 0.19 || s2 > 0.31 || s3 < 0.19 || s3 > 0.31 {
		t.Fatalf("jobs 2/3 shares = %.2f/%.2f, want ~0.25 each", s2, s3)
	}
}

// Metadata storms are bounded by the IOPS envelope, not bandwidth.
func TestStatStormIOPSBound(t *testing.T) {
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 5)})
	c.AddJob(JobSpec{
		Job:        job("meta", "u1", "g1", 1),
		Procs:      256,
		QueueDepth: 8, // enough concurrency to saturate the IOPS envelope
		MakeStream: func(int) workload.Stream {
			return workload.StatStorm()
		},
	})
	c.Run(5 * time.Second)
	s := c.Meter().Meta("meta")
	if s == nil {
		t.Fatal("no metadata series recorded")
	}
	opsPerSec := s.TotalBytes() / 5 // series stores op counts
	if opsPerSec < 0.5e6 || opsPerSec > 1.3e6 {
		t.Fatalf("stat throughput = %.0f ops/s, want ~1.2M (IOPS envelope)", opsPerSec)
	}
}

// FailServer mirrors the live failover: the failed server stops
// serving, its sightings are scrubbed (presence deweighting shifts to
// the survivors), and traffic aimed at it lands on a live server.
func TestFailServerShiftsLoad(t *testing.T) {
	c := NewCluster(Config{Servers: 2, NewSched: themisFactory(policy.JobFair, 1)})
	j := job("j1", "u1", "g1", 1)
	c.Submit(0, &sched.Request{Job: j, Op: sched.OpWrite, Bytes: 1})
	c.Submit(1, &sched.Request{Job: j, Op: sched.OpWrite, Bytes: 1})
	c.SyncTables()
	if act := c.Table(0).Active(c.Now()); len(act) != 1 || act[0].Presence != 2 {
		t.Fatalf("pre-failure active = %+v, want presence 2", act)
	}
	c.FailServer(1)
	if !c.Failed(1) || c.Failed(0) {
		t.Fatal("failure flags wrong")
	}
	if act := c.Table(0).Active(c.Now()); act[0].Presence != 1 {
		t.Fatalf("post-failure presence = %d, want 1", act[0].Presence)
	}
	// A request aimed at the dead server is served by the survivor.
	done := false
	c.Submit(1, &sched.Request{
		Job: j, Op: sched.OpWrite, Bytes: workload.MB,
		Done: func(time.Duration) { done = true },
	})
	c.Run(c.Now() + 100*time.Millisecond)
	if !done {
		t.Fatal("redirected request never completed")
	}
}

// SwapPolicy hands every server's control loop a new policy version:
// the scheduler recompiles mid-run with queues intact, measured shares
// follow the new policy, and the λ share ledger pairs measured shares
// with the compiled shares now in force.
func TestSwapPolicyAndShareReport(t *testing.T) {
	const end = 8 * time.Second
	c := NewCluster(Config{Servers: 1, NewSched: themisFactory(policy.JobFair, 3)})
	j1 := job("j1", "u1", "g1", 3)
	j2 := job("j2", "u2", "g2", 1)
	for _, j := range []policy.JobInfo{j1, j2} {
		for i := 0; i < 6; i++ {
			c.AddProc(Proc{
				Job:    j,
				Stream: workload.IORLoop(sched.OpWrite, 2*workload.MB),
				Stop:   end,
			})
		}
	}
	c.SwapPolicy(4*time.Second, policy.SizeFair, 0)
	c.Run(end)

	share := func(from, to time.Duration) float64 {
		a := c.Meter().MeanRate("j1", from, to)
		b := c.Meter().MeanRate("j2", from, to)
		return a / (a + b)
	}
	if s := share(1*time.Second, 3*time.Second); s < 0.45 || s > 0.55 {
		t.Fatalf("pre-swap job-fair share = %.3f, want ~0.5", s)
	}
	if s := share(6*time.Second, 8*time.Second); s < 0.70 || s > 0.80 {
		t.Fatalf("post-swap size-fair share = %.3f, want ~0.75", s)
	}

	rep := c.ShareReport(0)
	if len(rep) == 0 {
		t.Fatal("no share report after a busy run")
	}
	seen := map[string]bool{}
	for _, e := range rep {
		seen[e.Kind+"/"+e.ID] = true
		if e.Kind == "job" && (e.ID == "j1" || e.ID == "j2") {
			if r := e.Residual(); r < -0.05 || r > 0.05 {
				t.Errorf("%s ledger residual = %+.3f under the post-swap policy", e.ID, r)
			}
		}
	}
	for _, want := range []string{"job/j1", "job/j2", "user/u1", "user/u2", "group/g1", "group/g2"} {
		if !seen[want] {
			t.Errorf("share report missing entity %s", want)
		}
	}
	// The compiled shares in the report are the post-swap ones.
	for _, e := range rep {
		if e.Kind == "user" && e.ID == "u1" && (e.Compiled < 0.7 || e.Compiled > 0.8) {
			t.Errorf("u1 compiled share after swap = %.3f, want 0.75", e.Compiled)
		}
	}
}
