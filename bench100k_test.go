// Control-plane-at-scale benchmarks. At 100k active jobs the
// steady-state controller cost must be O(churn), not O(jobs): delta
// recompilation against from-scratch compilation, one λ roll of the
// hierarchical lazy share ledger, and a job's arrival in the job table.
// CI runs them at -benchtime 1x.
package themisio

import (
	"fmt"
	"testing"

	"themisio/internal/jobtable"
	"themisio/internal/metrics"
	"themisio/internal/policy"
)

// makeJobsWide is makeJobs with zero-padding wide enough that 100k ids
// stay in lexicographic JobID order (the active-set snapshot contract).
func makeJobsWide(n int) []policy.JobInfo {
	jobs := make([]policy.JobInfo, n)
	for i := range jobs {
		jobs[i] = policy.JobInfo{
			JobID:   fmt.Sprintf("job%06d", i),
			UserID:  fmt.Sprintf("user%03d", i%257),
			GroupID: fmt.Sprintf("grp%d", i%5),
			Nodes:   i%64 + 1,
		}
	}
	return jobs
}

// BenchmarkCompile100kJobs measures one controller recompile at 100k
// active jobs under the three-tier composite policy. "full" is the
// from-scratch Compile the controller used to pay on every job-set
// change; "delta" is the incremental Recompile over a churn of 10 jobs
// (10 departures + 10 arrivals per op, the paper's per-λ churn scale),
// chained so each op patches the previous op's epoch exactly as the
// live controller does. The PR 9 acceptance bar is delta ≥ 50× full.
func BenchmarkCompile100kJobs(b *testing.B) {
	const nJobs = 100_000
	const churn = 10
	jobs := makeJobsWide(nJobs)

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := policy.Compile(jobs, policy.GroupUserSizeFair); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("delta", func(b *testing.B) {
		prev, err := policy.Compile(jobs, policy.GroupUserSizeFair)
		if err != nil {
			b.Fatal(err)
		}
		// live is the FIFO of current job ids: each op retires the 10
		// oldest and admits 10 new arrivals, holding the set at 100k.
		live := make([]string, nJobs)
		for i, j := range jobs {
			live[i] = j.JobID
		}
		head, next := 0, nJobs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var d policy.Delta
			for k := 0; k < churn; k++ {
				d.Removed = append(d.Removed, live[head%nJobs])
				id := fmt.Sprintf("job%06d", next)
				d.Added = append(d.Added, policy.JobInfo{
					JobID:   id,
					UserID:  fmt.Sprintf("user%03d", next%257),
					GroupID: fmt.Sprintf("grp%d", next%5),
					Nodes:   next%64 + 1,
				})
				live[head%nJobs] = id
				head++
				next++
			}
			prev, err = policy.Recompile(prev, d)
			if err != nil {
				b.Fatal(err)
			}
		}
		if prev.JobCount() != nJobs {
			b.Fatalf("job count drifted to %d", prev.JobCount())
		}
	})
}

// BenchmarkLedgerRoll100k measures one λ share-ledger roll on a fabric
// that knows 100k jobs of which 1k serviced bytes in the window.
// "hier" is the hierarchical lazy ledger (per-window deltas, entities
// materialised only for traffic).
func BenchmarkLedgerRoll100k(b *testing.B) {
	const nJobs = 100_000
	const active = 1_000
	jobs := makeJobsWide(nJobs)
	set := jobtable.ActiveSet(jobs)
	shareOf := func(string) float64 { return 1.0 / nJobs }

	b.Run("hier", func(b *testing.B) {
		l := metrics.NewShareLedger(metrics.DefaultShareHorizon)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			delta := make(map[string]int64, active)
			for k := 0; k < active; k++ {
				delta[jobs[(i*active+k)%nJobs].JobID] = 1 << 20
			}
			l.Roll(delta, set.Lookup, shareOf)
		}
	})
}

// BenchmarkArrival measures what a job's arrival costs the job table at
// 1k, 20k and 100k registered jobs, pre-filled by one Merge + Refresh.
// "observe" is the new job's first sighting, which the connection reader
// that saw it pays; "publish" is the controller's Refresh folding 20
// such arrivals into one delta. Off the clock the arrivals are
// removed again (every 100 sightings, or before each publish), so the
// table stays within 10 % of its size.
func BenchmarkArrival(b *testing.B) {
	const batch = 100
	arrivals := make([]policy.JobInfo, batch)
	for i := range arrivals {
		arrivals[i] = policy.JobInfo{JobID: fmt.Sprintf("new%06d", i), UserID: "u", GroupID: "g", Nodes: 1}
	}
	retire := func(t *jobtable.Table, k int) {
		for _, j := range arrivals[:k] {
			t.Remove(j.JobID)
		}
	}
	for _, n := range []int{1_000, 20_000, 100_000} {
		peer := make([]jobtable.Entry, n)
		for i, j := range makeJobsWide(n) {
			peer[i] = jobtable.Entry{Info: j}
		}
		filled := func() *jobtable.Table {
			t := jobtable.New("s0", 0)
			t.Merge(peer, 0)
			t.Refresh(0)
			return t
		}
		b.Run(fmt.Sprintf("observe/jobs=%d", n), func(b *testing.B) {
			t := filled()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Observe(arrivals[i%batch], 0)
				if i%batch == batch-1 {
					b.StopTimer()
					retire(t, batch)
					b.StartTimer()
				}
			}
		})
		b.Run(fmt.Sprintf("publish/jobs=%d", n), func(b *testing.B) {
			const k = 20
			t := filled()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				retire(t, k)
				t.Refresh(0)
				for _, j := range arrivals[:k] {
					t.Observe(j, 0)
				}
				b.StartTimer()
				t.Refresh(0)
			}
		})
	}
}
