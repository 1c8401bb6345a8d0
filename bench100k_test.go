// Control-plane-at-scale benchmarks. At 100k active jobs the
// steady-state controller cost must be O(churn), not O(jobs): delta
// recompilation against from-scratch compilation, and one λ roll of the
// hierarchical lazy share ledger. CI runs them at -benchtime 1x.
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
// from-scratch Compile the controller used to pay on every generation
// move; "delta" is the incremental Recompile over a churn of 10 jobs
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
	snap := &jobtable.ActiveSet{Gen: 1, Jobs: jobs}
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
			l.Roll(delta, snap.Lookup, shareOf)
		}
	})
}
