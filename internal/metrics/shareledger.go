// Share ledger: per-entity fairness accounting for the live policy
// hot-swap machinery. Each server's scheduler keeps lock-free cumulative
// serviced-byte counters per job (core.Themis.ServedBytes); every λ the
// controller rolls this ledger, which converts the counters into
// per-window deltas, aggregates them to the policy's sharing entities
// (job, user, group), and pairs each entity's *measured* serviced-byte
// share over a bounded window horizon with the *compiled* token share
// the current policy assigns it. The residual between the two is the
// convergence signal the paper's operability story rests on: after a
// live `themisctl policy set`, every server's measured shares should
// track the freshly compiled shares within noise a few λ later — an
// invariant the fairness CI gate enforces at ±0.02.
package metrics

import (
	"sort"
	"sync"

	"themisio/internal/policy"
)

// ShareEntry is one sharing entity's accounting at a window close. Kind
// is "job", "user" or "group"; Compiled is the token share the policy
// compiled for the entity at the close (summed over the entity's jobs
// for user/group rows); Measured is the fraction of all serviced bytes
// the entity received over the ledger's horizon; Bytes is the entity's
// absolute serviced bytes over the same horizon.
//
// Measured tracks Compiled only while every entity keeps a backlog:
// opportunity fairness deliberately hands an idle entity's cycles to
// whoever has demand, so an under-demanding entity measures below its
// compiled share and the others above. The residual is a convergence
// check for saturated phases, not a violation detector.
type ShareEntry struct {
	Kind     string
	ID       string
	Compiled float64
	Measured float64
	Bytes    int64
}

// Residual is the measured-minus-compiled convergence residual.
func (e ShareEntry) Residual() float64 { return e.Measured - e.Compiled }

// DefaultShareHorizon is how many λ windows the measured share averages
// over. One window of a busy server holds a few thousand token draws —
// enough for ±0.02 on a ~0.25 share only at the edge of binomial noise —
// so the default horizon keeps per-entity estimates an order of
// magnitude tighter while still forgetting a policy swap within a
// second or two of λs.
const DefaultShareHorizon = 8

// ShareLedger accumulates per-λ serviced-byte windows and produces the
// per-entity share report. Safe for concurrent use: the controller
// rolls it on the λ tick while operator queries read the report.
//
// The ledger is hierarchical and lazy: each roll consumes a per-window
// byte *delta* (the scheduler's ServedBytesDelta drain) and
// materialises rows only for jobs that serviced bytes inside the
// horizon, rolling them up into per-user and per-group aggregates. A λ
// roll at 100k known entities with 1k active therefore touches 1k jobs
// plus their entities, never the full universe.
type ShareLedger struct {
	mu      sync.Mutex
	horizon int
	windows []map[string]int64 // per-window serviced-byte deltas, oldest first
	report  []ShareEntry
}

// NewShareLedger returns a ledger averaging over the given number of λ
// windows (non-positive selects DefaultShareHorizon).
func NewShareLedger(horizon int) *ShareLedger {
	if horizon <= 0 {
		horizon = DefaultShareHorizon
	}
	return &ShareLedger{horizon: horizon}
}

// Roll closes one λ window: delta is the scheduler's
// per-job serviced-byte delta for the window (ServedBytesDelta — only
// jobs that actually serviced bytes appear), lookup lazily resolves a
// job id to its active-set info (the snapshot's binary search; a miss
// means the job departed), and shareOf the compiled token share per
// job under the policy in force at the close. It returns the refreshed
// report.
//
// Rows are materialised only for jobs with serviced bytes inside the
// horizon; each resolves through lookup into its user and group
// roll-up. A job that departed mid-horizon still gets a job row — so
// measured shares keep summing to 1 — but no user/group attribution:
// its metadata left with it. A window in which nothing was serviced
// leaves the previous report standing — an idle λ carries no fairness
// evidence either way.
func (l *ShareLedger) Roll(delta map[string]int64, lookup func(job string) (policy.JobInfo, bool), shareOf func(job string) float64) []ShareEntry {
	l.mu.Lock()
	defer l.mu.Unlock()

	w := make(map[string]int64, len(delta))
	for job, d := range delta {
		if d > 0 {
			w[job] = d
		}
	}
	l.windows = append(l.windows, w)
	if len(l.windows) > l.horizon {
		l.windows = l.windows[len(l.windows)-l.horizon:]
	}

	bytes := make(map[string]int64)
	var total int64
	for _, w := range l.windows {
		for job, d := range w {
			bytes[job] += d
			total += d
		}
	}
	if total == 0 {
		return append([]ShareEntry(nil), l.report...)
	}

	type agg struct {
		compiled float64
		bytes    int64
	}
	users := map[string]*agg{}
	groups := map[string]*agg{}
	out := make([]ShareEntry, 0, len(bytes))
	add := func(m map[string]*agg, key string, compiled float64, b int64) {
		a, ok := m[key]
		if !ok {
			a = &agg{}
			m[key] = a
		}
		a.compiled += compiled
		a.bytes += b
	}
	for job, b := range bytes {
		c := shareOf(job)
		out = append(out, ShareEntry{
			Kind: "job", ID: job,
			Compiled: c, Measured: float64(b) / float64(total), Bytes: b,
		})
		if j, ok := lookup(job); ok {
			add(users, j.UserID, c, b)
			add(groups, j.GroupID, c, b)
		}
	}
	emit := func(kind string, m map[string]*agg) {
		for id, a := range m {
			out = append(out, ShareEntry{
				Kind: kind, ID: id,
				Compiled: a.compiled, Measured: float64(a.bytes) / float64(total), Bytes: a.bytes,
			})
		}
	}
	emit("user", users)
	emit("group", groups)
	sort.Slice(out, func(i, k int) bool {
		if out[i].Kind != out[k].Kind {
			return kindRank[out[i].Kind] < kindRank[out[k].Kind]
		}
		return out[i].ID < out[k].ID
	})
	l.report = out
	return append([]ShareEntry(nil), out...)
}

// kindRank orders report rows job < user < group.
var kindRank = map[string]int{"job": 0, "user": 1, "group": 2}

// Report returns the latest per-entity report (nil before the first
// non-idle window).
func (l *ShareLedger) Report() []ShareEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ShareEntry(nil), l.report...)
}

// ReportTop returns the report's worst offenders: entities of the
// given kind ("" or "all" means every kind) ordered by |residual|
// descending — ties broken by kind then ID for determinism — truncated
// to n rows. n <= 0 disables truncation. This is what pages the
// `themisctl policy status` view at 100k entities instead of shipping
// the world over the wire.
func (l *ShareLedger) ReportTop(n int, kind string) []ShareEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ShareEntry, 0, len(l.report))
	for _, e := range l.report {
		if kind != "" && kind != "all" && e.Kind != kind {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, k int) bool {
		ri, rk := out[i].Residual(), out[k].Residual()
		if ri < 0 {
			ri = -ri
		}
		if rk < 0 {
			rk = -rk
		}
		if ri != rk {
			return ri > rk
		}
		if out[i].Kind != out[k].Kind {
			return kindRank[out[i].Kind] < kindRank[out[k].Kind]
		}
		return out[i].ID < out[k].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// MaxResidual returns the largest |measured − compiled| among the
// report's entities of the given kind ("" means all kinds), and whether
// any such entity exists — the scalar the fairness gate bounds.
func (l *ShareLedger) MaxResidual(kind string) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	worst, any := 0.0, false
	for _, e := range l.report {
		if kind != "" && e.Kind != kind {
			continue
		}
		any = true
		if r := e.Residual(); r > worst {
			worst = r
		} else if -r > worst {
			worst = -r
		}
	}
	return worst, any
}
