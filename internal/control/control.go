// Package control is the controller of §3.1/§4.1: the one place that
// decides when a server's scheduler is recompiled, under which policy,
// and when a share-accounting window closes. The live server drives it
// on wall time and the simulator on virtual time — every method takes
// now, so the loop has no clock of its own and both planes run the same
// step.
//
// The rule that keeps the scheduler current between λ ticks is stated
// once, here: whoever has just fed the job table (Submit, a heartbeat, a
// merged peer snapshot) and finds Stale() true asks the loop's owner for
// a Compile. The owner — the daemon's controller goroutine, the
// simulator's event loop — is the only caller of OfferPolicy, Compile and
// Tick; Submit, Stale, AppliedPolicy and Ledger are safe from anywhere.
package control

import (
	"sync/atomic"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/metrics"
	"themisio/internal/policy"
	"themisio/internal/sched"
)

// The capabilities of core.Themis that the baseline schedulers (FIFO,
// GIFT, TBF) lack. A loop over a baseline full-compiles, ignores policy
// versions and reports no shares.
type (
	deltaScheduler interface {
		ApplyDelta([]policy.JobInfo, policy.Delta)
	}
	policyScheduler interface {
		Policy() policy.Policy
		SetPolicy(policy.Policy)
	}
	shareScheduler interface {
		ServedBytesDelta() map[string]int64
		Share(job string) float64
	}
)

// version is a sharing policy and the cluster policy epoch it was set at
// (0 is the boot policy, before any live `policy set`).
type version struct {
	pol   policy.Policy
	str   string
	epoch uint64
}

// Loop is one server's controller.
type Loop struct {
	table  *jobtable.Table
	sched  sched.Scheduler
	ledger *metrics.ShareLedger
	delta  deltaScheduler
	policy policyScheduler
	shares shareScheduler

	// compiled is the table generation the scheduler's epoch was built
	// from; applied the policy version it enforces; offered a version
	// handed over by OfferPolicy that the next Compile applies.
	compiled atomic.Uint64
	applied  atomic.Pointer[version]
	offered  *version
}

// New returns the controller of the scheduler s over table t.
func New(t *jobtable.Table, s sched.Scheduler) *Loop {
	l := &Loop{table: t, sched: s, ledger: metrics.NewShareLedger(0)}
	l.delta, _ = s.(deltaScheduler)
	l.policy, _ = s.(policyScheduler)
	l.shares, _ = s.(shareScheduler)
	boot := &version{}
	if l.policy != nil {
		boot.str = l.policy.Policy().String()
	}
	l.applied.Store(boot)
	return l
}

// Submit is how a request enters the scheduler: the job table sights its
// job, then the job's queue takes it. It compiles nothing.
func (l *Loop) Submit(r *sched.Request, now time.Duration) {
	l.table.Observe(r.Job, now)
	l.sched.Push(r)
}

// Stale reports whether the job table has published a generation the
// scheduler has not been compiled against.
func (l *Loop) Stale() bool { return l.table.Generation() != l.compiled.Load() }

// OfferPolicy hands the loop the cluster's policy version; the next
// Compile applies it. It reports whether the version is news. The string
// is compared as well as the epoch: two concurrent sets can land at one
// epoch, and the gossip tie-break then replaces the string a member has
// already applied without moving the epoch.
func (l *Loop) OfferPolicy(pol policy.Policy, epoch uint64) bool {
	cur := l.offered
	if cur == nil {
		cur = l.applied.Load()
	}
	str := pol.String()
	if l.policy == nil || epoch == cur.epoch && str == cur.str {
		return false
	}
	l.offered = &version{pol: pol, str: str, epoch: epoch}
	return true
}

// AppliedPolicy returns the canonical string of the policy the scheduler
// enforces and the cluster policy epoch it arrived at.
func (l *Loop) AppliedPolicy() (string, uint64) {
	v := l.applied.Load()
	return v.str, v.epoch
}

// Compile brings the scheduler up to date: a policy version handed over
// since the last step is applied (queues are untouched — every queued
// request re-arbitrates under the new shares on its next draw), the
// table's snapshot is refreshed as of now, and if its generation moved
// the scheduler's epoch is rebuilt — patched with the generation delta
// in O(churn) when the table's ring still bridges the gap, from scratch
// otherwise. With nothing moved it costs two atomic loads and an O(1)
// Refresh, so steady traffic compiles nothing.
func (l *Loop) Compile(now time.Duration) {
	if v := l.offered; v != nil {
		l.offered = nil
		l.policy.SetPolicy(v.pol)
		l.applied.Store(v)
	}
	last := l.compiled.Load()
	l.table.Refresh(now)
	snap := l.table.ActiveSnapshot()
	if snap.Gen == last {
		return
	}
	// The delta runs from last to the table's generation when it is
	// taken; it patches last's epoch into snap's only if no writer
	// published in between.
	if d, ok := l.table.DeltaSince(last); ok && l.delta != nil && l.table.Generation() == snap.Gen {
		l.delta.ApplyDelta(snap.Jobs, d)
	} else {
		l.sched.SetJobs(snap.Jobs)
	}
	l.compiled.Store(snap.Gen)
}

// Tick is the λ step, run after the table synchronization: entries long
// past their heartbeat are dropped, the scheduler is compiled, and the
// share-accounting window closes — after the compile, so the compiled
// shares paired with the window are the ones now in force.
func (l *Loop) Tick(now time.Duration) {
	l.table.Expire(now, 0)
	l.Compile(now)
	if l.shares != nil {
		l.ledger.Roll(l.shares.ServedBytesDelta(), l.table.ActiveSnapshot().Lookup, l.shares.Share)
	}
}

// Ledger returns the per-entity share accounting Tick rolls, for
// reports.
func (l *Loop) Ledger() *metrics.ShareLedger { return l.ledger }
