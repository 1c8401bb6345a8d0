// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a pure function of fixed seeds over
// the discrete-event simulator, so results are reproducible bit-for-bit.
// cmd/benchrun exposes the registry on the command line.
//
// Absolute GB/s values are expected to land near the paper's because the
// simulator is calibrated from the paper's own hardware envelope
// (internal/bb/calibration.go); the claims under test are the *shapes*:
// who wins, by what factor, and where behaviour changes.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"themisio/internal/bb"
	"themisio/internal/core"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

// Result is the outcome of one experiment: rendered rows plus the paper's
// reference numbers for side-by-side comparison.
type Result struct {
	ID    string
	Title string
	// Lines is the regenerated table/series.
	Lines []string
	// Paper summarizes what the paper reports for the same figure.
	Paper []string
	// Metrics exposes key scalar results for tests and benchmarks.
	Metrics map[string]float64
}

// Render formats the result as text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(r.Paper) > 0 {
		b.WriteString("--- paper reports ---\n")
		for _, l := range r.Paper {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) metric(k string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[k] = v
}

// Spec is a registry entry.
type Spec struct {
	ID    string
	Title string
	Run   func() *Result
}

// Registry lists every reproducible figure/table in paper order.
var Registry = []Spec{
	{"capacity", "§5.2 single-server hardware envelope", Capacity},
	{"fig1", "Figure 1: application slowdown with a shared burst buffer (FIFO)", Fig1},
	{"fig7", "Figure 7: aggregate throughput scaling, 1–128 servers", Fig7},
	{"fig8a", "Figure 8a: size-fair, 4-node vs 1-node job", Fig8a},
	{"fig8b", "Figure 8b: job-fair, 4-node vs 1-node job", Fig8b},
	{"fig8c", "Figure 8c: user-fair, 2 users / 3 jobs", Fig8c},
	{"fig9", "Figure 9: user-then-size-fair, 2 users / 4 jobs", Fig9},
	{"fig10", "Figures 10+11: group-user-size-fair, 2 groups / 4 users / 8 jobs", Fig10},
	{"fig12", "Figure 12: ThemisIO vs GIFT vs TBF (job-fair)", Fig12},
	{"fig13", "Figure 13: application slowdown, FIFO vs size-fair", Fig13},
	{"fig14", "Figure 14: λ-delayed global fairness", Fig14},
	{"ablation", "design ablations: opportunity fairness, presence deweighting", Ablation},
	{"metadata", "§2.2.1 metadata-storm isolation (iops_stat)", Metadata},
	{"stageout", "stage-out drain vs foreground under the sharing policy", StageOut},
	{"rebalance", "join-time stripe migration vs foreground under the sharing policy", Rebalance},
	{"policyswap", "live policy hot-swap: measured share re-convergence", PolicySwap},
}

// Lookup finds a registry entry by ID.
func Lookup(id string) *Spec {
	for i := range Registry {
		if Registry[i].ID == id {
			return &Registry[i]
		}
	}
	return nil
}

// --- shared builders -----------------------------------------------------

func themisSched(pol policy.Policy, seed int64) func(int, float64) sched.Scheduler {
	return func(i int, _ float64) sched.Scheduler { return core.New(pol, seed+101*int64(i)) }
}

func fifoSched() func(int, float64) sched.Scheduler {
	return func(int, float64) sched.Scheduler { return sched.NewFIFO() }
}

func giftSched() func(int, float64) sched.Scheduler {
	return func(_ int, capacity float64) sched.Scheduler {
		return sched.NewGIFT(sched.GIFTConfig{Capacity: capacity})
	}
}

func tbfSched() func(int, float64) sched.Scheduler {
	return func(_ int, capacity float64) sched.Scheduler {
		return sched.NewTBF(sched.TBFConfig{Capacity: capacity})
	}
}

func jobInfo(id, user, group string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: user, GroupID: group, Nodes: nodes}
}

// wrCycle is the §5.3 benchmark stream: 10 MB write-then-read cycles in
// 1 MB blocks.
func wrCycle() func(int) workload.Stream {
	return func(int) workload.Stream {
		return workload.WriteReadCycle(10*workload.MB, workload.MB)
	}
}

// benchJob adds a §5.3-style benchmark job: 56 processes per node. Process
// start times are staggered by a few hundred microseconds each — as MPI
// ranks on a real machine are — so write/read cycle phases desynchronize
// and the duplex link is driven in both directions at once.
func benchJob(c *bb.Cluster, job policy.JobInfo, start, stop time.Duration) {
	procs := 56 * job.Nodes
	for i := 0; i < procs; i++ {
		c.AddProc(bb.Proc{
			Job:    job,
			Stream: wrCycle()(i),
			Start:  start + time.Duration(i)*437*time.Microsecond,
			Stop:   stop,
		})
	}
}

func gbps(v float64) float64 { return v / 1e9 }
