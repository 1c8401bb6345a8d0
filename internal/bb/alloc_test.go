package bb

import (
	"runtime"
	"testing"
	"time"

	"themisio/internal/policy"
	"themisio/internal/workload"
)

// TestSimAllocationBudget holds the simulator's per-request cost: a
// completed request allocates its sched.Request and nothing else, so the
// paper-figure runs spend their time scheduling rather than collecting
// garbage. The completed count doubles as a determinism canary: it is a
// pure function of the configuration, and any change to the engine's
// event order or the fluid model moves it.
func TestSimAllocationBudget(t *testing.T) {
	c := NewCluster(Config{Servers: 2, NewSched: themisFactory(policy.SizeFair, 1)})
	var handles []*ProcHandle
	for _, j := range []policy.JobInfo{job("big", "u1", "g1", 4), job("small", "u2", "g2", 1)} {
		handles = append(handles, c.AddJob(JobSpec{
			Job:   j,
			Procs: 16,
			MakeStream: func(int) workload.Stream {
				return workload.WriteReadCycle(10*workload.MB, workload.MB)
			},
		})...)
	}
	completed := func() (n int64) {
		for _, h := range handles {
			n += h.Completed
		}
		return n
	}

	c.Run(500 * time.Millisecond) // warm up: tables, queues and the event slice at size
	before := completed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.Run(5500 * time.Millisecond)
	runtime.ReadMemStats(&m1)
	n := completed() - before

	perReq := float64(m1.Mallocs-m0.Mallocs) / float64(n)
	t.Logf("%d requests completed in 5 s: %.2f allocations, %.0f B per request",
		n, perReq, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	if perReq > 2 {
		t.Errorf("%.2f allocations per completed request, want <= 2", perReq)
	}
	if n != 195498 {
		t.Errorf("completed %d requests, want 195498: the simulation's outcome moved", n)
	}
}
