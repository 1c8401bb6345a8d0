package experiments

import (
	"fmt"
	"time"

	"themisio/internal/bb"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

// PolicySwap sweeps the live policy hot-swap machinery on the
// simulated burst buffer: the administrator flips the cluster-wide
// sharing policy while traffic is in flight, every server recompiles
// at its next λ (PR 2's epoch machinery — the swap is just one more
// epoch publication), and the per-entity measured serviced-byte shares
// must re-converge to the freshly compiled token shares. Four
// scenarios:
//
//   - steady: no swap — size-fair over two flooding users; the
//     baseline that the measured share tracks the compiled share at
//     all (the 0.249-vs-0.25 claims of EXPERIMENTS.md, as an
//     enforced sweep).
//   - swap: job-fair → size-fair mid-flood; shares must match the old
//     policy before the swap and the new one after it.
//   - swap-rebalance: the swap lands while a join-time stripe
//     migration is running; the rebalance job re-arbitrates under the
//     new compiled share like any foreground job.
//   - straggler: two servers, the second applies the swap a couple of
//     gossip rounds late (a member that missed the first fan-outs and
//     learns via catch-up); after the rumor lands everywhere, both
//     servers' λ share ledgers must agree with their compiled shares.
//
// Every *_residual metric is a measured-minus-compiled share residual;
// the fairness CI gate bounds them all at ±0.02.
func PolicySwap() *Result {
	r := &Result{ID: "policyswap", Title: "live policy hot-swap: measured share re-convergence"}

	// 2 MB chunks keep the event count (and wall time) down; the fluid
	// model's shares are byte-based, so chunk size does not move them.
	const chunk = 2 * workload.MB

	u1 := jobInfo("job1-3n", "u1", "g1", 3)
	u2 := jobInfo("job2-1n", "u2", "g2", 1)
	flood := func(c *bb.Cluster, job policy.JobInfo, procs int, end time.Duration) {
		for i := 0; i < procs; i++ {
			c.AddProc(bb.Proc{
				Job:    job,
				Stream: workload.IORLoop(sched.OpWrite, chunk),
				Start:  time.Duration(i) * 437 * time.Microsecond,
				Stop:   end,
			})
		}
	}
	// measured returns jobA's share of the two jobs' combined
	// throughput over [from, to).
	measured := func(c *bb.Cluster, jobA, jobB string, from, to time.Duration) float64 {
		a := c.Meter().MeanRate(jobA, from, to)
		b := c.Meter().MeanRate(jobB, from, to)
		return a / (a + b)
	}
	compiled := func(pol policy.Policy, jobs ...policy.JobInfo) map[string]float64 {
		m, err := policy.Shares(jobs, pol)
		if err != nil {
			panic(err)
		}
		return m
	}
	// ledgerResidual returns the worst |measured − compiled| among the
	// named jobs in server i's λ share ledger — the sim mirror of what
	// `themisctl policy status` prints per server.
	ledgerResidual := func(c *bb.Cluster, i int, jobs ...string) float64 {
		want := map[string]bool{}
		for _, j := range jobs {
			want[j] = true
		}
		worst := 0.0
		found := 0
		for _, e := range c.ShareReport(i) {
			if e.Kind != "job" || !want[e.ID] {
				continue
			}
			found++
			if res := e.Residual(); res > worst {
				worst = res
			} else if -res > worst {
				worst = -res
			}
		}
		if found != len(jobs) {
			panic(fmt.Sprintf("policyswap: ledger of server %d reports %d of %d jobs", i, found, len(jobs)))
		}
		return worst
	}

	// --- steady: no swap, size-fair baseline ---------------------------
	{
		const end = 10 * time.Second
		c := bb.NewCluster(bb.Config{Servers: 1, NewSched: themisSched(policy.SizeFair, 11)})
		flood(c, u1, 8, end)
		flood(c, u2, 8, end)
		c.Run(end)
		comp := compiled(policy.SizeFair, u1, u2)
		meas := measured(c, u1.JobID, u2.JobID, 4*time.Second, 9*time.Second)
		r.addf("steady       size-fair: u1 measured %.3f (compiled %.3f)", meas, comp[u1.JobID])
		r.metric("steady_u1_share", meas)
		r.metric("steady_u1_residual", meas-comp[u1.JobID])
	}

	// --- swap: job-fair → size-fair mid-flood --------------------------
	{
		const (
			swapAt = 6 * time.Second
			end    = 13 * time.Second
		)
		c := bb.NewCluster(bb.Config{Servers: 1, NewSched: themisSched(policy.JobFair, 12)})
		flood(c, u1, 8, end)
		flood(c, u2, 8, end)
		c.SwapPolicy(swapAt, policy.SizeFair, 0)
		c.Run(end)
		pre := measured(c, u1.JobID, u2.JobID, 2*time.Second, 5*time.Second)
		post := measured(c, u1.JobID, u2.JobID, 9*time.Second, 12*time.Second)
		compPre := compiled(policy.JobFair, u1, u2)
		compPost := compiled(policy.SizeFair, u1, u2)
		// The ledger horizon (8 λ = 4 s) has fully forgotten the old
		// policy by the end, so its report must agree with its own
		// compiled shares too — the wire-visible convergence signal.
		led := ledgerResidual(c, 0, u1.JobID, u2.JobID)
		r.addf("swap         job-fair→size-fair at %v: u1 pre %.3f (compiled %.3f), post %.3f (compiled %.3f), ledger residual %.3f",
			swapAt, pre, compPre[u1.JobID], post, compPost[u1.JobID], led)
		r.metric("swap_pre_share", pre)
		r.metric("swap_pre_residual", pre-compPre[u1.JobID])
		r.metric("swap_post_share", post)
		r.metric("swap_post_residual", post-compPost[u1.JobID])
		r.metric("swap_ledger_residual", led)
	}

	// --- swap-rebalance: flip policy while a migration is running ------
	{
		const (
			swapAt = 6 * time.Second
			end    = 13 * time.Second
		)
		c := bb.NewCluster(bb.Config{Servers: 1, NewSched: themisSched(policy.JobFair, 13)})
		flood(c, u1, 8, end)
		// Depth 32 keeps the migration continuously busy, as in the
		// rebalance experiment: what is under test is the share, not
		// opportunistic hand-back.
		c.AddRebalance(0, chunk, 32, 0, end)
		c.SwapPolicy(swapAt, policy.SizeFair, 0)
		c.Run(end)
		mig := bb.RebalanceJobID(0)
		migJob := policy.RebalanceJob("bb0")
		pre := measured(c, mig, u1.JobID, 2*time.Second, 5*time.Second)
		post := measured(c, mig, u1.JobID, 9*time.Second, 12*time.Second)
		compPre := compiled(policy.JobFair, u1, migJob)
		compPost := compiled(policy.SizeFair, u1, migJob)
		r.addf("swap-rebal   job-fair→size-fair mid-migration: migration pre %.3f (compiled %.3f), post %.3f (compiled %.3f)",
			pre, compPre[mig], post, compPost[mig])
		r.metric("rebalance_pre_share", pre)
		r.metric("rebalance_pre_residual", pre-compPre[mig])
		r.metric("rebalance_post_share", post)
		r.metric("rebalance_post_residual", post-compPost[mig])
	}

	// --- straggler: one member applies the swap two λ late -------------
	{
		const (
			swapAt  = 6 * time.Second
			stagger = 2 * bb.DefaultLambda // server 1 recompiles 2λ after server 0
			end     = 14 * time.Second
		)
		c := bb.NewCluster(bb.Config{Servers: 2, NewSched: themisSched(policy.JobFair, 14)})
		flood(c, u1, 8, end)
		flood(c, u2, 8, end)
		c.SwapPolicy(swapAt, policy.SizeFair, stagger)
		c.Run(end)
		comp := compiled(policy.SizeFair, u1, u2)
		// Global measured share once every member has recompiled (the
		// last one applies at swapAt+stagger; give the ledger horizon a
		// beat to forget the mixed-policy transient).
		post := measured(c, u1.JobID, u2.JobID, 9*time.Second, 13*time.Second)
		worstLedger := ledgerResidual(c, 0, u1.JobID, u2.JobID)
		if l1 := ledgerResidual(c, 1, u1.JobID, u2.JobID); l1 > worstLedger {
			worstLedger = l1
		}
		r.addf("straggler    2 servers, swap lands 2λ apart: u1 post %.3f (compiled %.3f), worst ledger residual %.3f",
			post, comp[u1.JobID], worstLedger)
		r.metric("straggler_post_share", post)
		r.metric("straggler_post_residual", post-comp[u1.JobID])
		r.metric("straggler_ledger_residual", worstLedger)
	}

	r.Paper = []string{
		"no figure — the paper's §2.2.2 operability claim (one policy string",
		"steers sharing) extended to a live fleet; the claim under test is that",
		"a hot-swap re-converges measured shares to Equation 1 within a few λ",
	}
	return r
}
