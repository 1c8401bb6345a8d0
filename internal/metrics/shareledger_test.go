package metrics

import (
	"math"
	"testing"

	"themisio/internal/policy"
)

func ledgerJobs() []policy.JobInfo {
	return []policy.JobInfo{
		{JobID: "j1", UserID: "alice", GroupID: "g1", Nodes: 3},
		{JobID: "j2", UserID: "bob", GroupID: "g1", Nodes: 1},
	}
}

func shareOf(m map[string]float64) func(string) float64 {
	return func(job string) float64 { return m[job] }
}

// lookupOf resolves job ids against a fixed job slice, standing in for
// the job table snapshot's lazy Lookup.
func lookupOf(jobs []policy.JobInfo) func(string) (policy.JobInfo, bool) {
	return func(job string) (policy.JobInfo, bool) {
		for _, j := range jobs {
			if j.JobID == job {
				return j, true
			}
		}
		return policy.JobInfo{}, false
	}
}

func entry(t *testing.T, rep []ShareEntry, kind, id string) ShareEntry {
	t.Helper()
	for _, e := range rep {
		if e.Kind == kind && e.ID == id {
			return e
		}
	}
	t.Fatalf("no %s entry %q in %+v", kind, id, rep)
	return ShareEntry{}
}

func hasEntry(rep []ShareEntry, kind, id string) bool {
	for _, e := range rep {
		if e.Kind == kind && e.ID == id {
			return true
		}
	}
	return false
}

// Rolling accumulates per-window deltas into horizon measured shares;
// user and group rows aggregate their jobs' bytes and compiled shares.
func TestShareLedgerAggregation(t *testing.T) {
	l := NewShareLedger(4)
	comp := map[string]float64{"j1": 0.75, "j2": 0.25}

	l.Roll(map[string]int64{"j1": 100, "j2": 100}, lookupOf(ledgerJobs()), shareOf(comp))
	rep := l.Roll(map[string]int64{"j1": 300, "j2": 100}, lookupOf(ledgerJobs()), shareOf(comp))

	// Horizon bytes: j1 = 100+300, j2 = 100+100 → measured 2/3 vs 1/3.
	j1 := entry(t, rep, "job", "j1")
	if math.Abs(j1.Measured-4.0/6.0) > 1e-9 || j1.Bytes != 400 || j1.Compiled != 0.75 {
		t.Fatalf("j1 entry: %+v", j1)
	}
	alice := entry(t, rep, "user", "alice")
	if alice.Bytes != 400 || math.Abs(alice.Compiled-0.75) > 1e-9 {
		t.Fatalf("alice entry: %+v", alice)
	}
	g1 := entry(t, rep, "group", "g1")
	if g1.Bytes != 600 || math.Abs(g1.Measured-1.0) > 1e-9 || math.Abs(g1.Compiled-1.0) > 1e-9 {
		t.Fatalf("g1 entry: %+v", g1)
	}
	if worst, any := l.MaxResidual("job"); !any || math.Abs(worst-(0.75-4.0/6.0)) > 1e-9 {
		t.Fatalf("MaxResidual = %v %v", worst, any)
	}
}

// An idle window leaves the previous report standing, and old windows
// age out of the horizon — after which an entity with no horizon
// traffic is not materialised at all.
func TestShareLedgerIdleAndHorizon(t *testing.T) {
	l := NewShareLedger(2)
	comp := map[string]float64{"j1": 0.5, "j2": 0.5}

	l.Roll(map[string]int64{"j1": 100}, lookupOf(ledgerJobs()), shareOf(comp))
	idle := l.Roll(nil, lookupOf(ledgerJobs()), shareOf(comp))
	if e := entry(t, idle, "job", "j1"); e.Bytes != 100 {
		t.Fatalf("idle window must keep the previous report, got %+v", e)
	}
	// Two more active windows push j1's window out of horizon 2.
	l.Roll(map[string]int64{"j2": 50}, lookupOf(ledgerJobs()), shareOf(comp))
	rep := l.Roll(map[string]int64{"j2": 50}, lookupOf(ledgerJobs()), shareOf(comp))
	if e := entry(t, rep, "job", "j2"); e.Bytes != 100 {
		t.Fatalf("horizon should hold the last 2 windows only, got %+v", e)
	}
	if hasEntry(rep, "job", "j1") || hasEntry(rep, "user", "alice") {
		t.Fatalf("j1 had no bytes inside the horizon and must not be materialised: %+v", rep)
	}
}

// A job that departed the active set but serviced bytes inside the
// horizon still appears as a job row, so measured shares sum to 1 —
// but it attributes to no user/group (its metadata left with it).
func TestShareLedgerDepartedJob(t *testing.T) {
	l := NewShareLedger(4)
	comp := map[string]float64{"j1": 1}
	present := []policy.JobInfo{{JobID: "j1", UserID: "alice", GroupID: "g1"}}
	rep := l.Roll(map[string]int64{"j1": 100, "gone": 100}, lookupOf(present), shareOf(comp))
	if e := entry(t, rep, "job", "gone"); e.Measured != 0.5 || e.Compiled != 0 {
		t.Fatalf("departed job entry: %+v", e)
	}
	sum := 0.0
	for _, e := range rep {
		if e.Kind == "job" {
			sum += e.Measured
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("job measured shares sum to %v, want 1", sum)
	}
	if e := entry(t, rep, "user", "alice"); e.Bytes != 100 {
		t.Fatalf("departed job must not attribute to any user: %+v", e)
	}
}

// Group and user roll-ups equal the sum of their lazily-materialised
// member jobs, bytes and compiled shares alike.
func TestShareLedgerRollupSums(t *testing.T) {
	jobs := []policy.JobInfo{
		{JobID: "a", UserID: "u1", GroupID: "g1"},
		{JobID: "b", UserID: "u1", GroupID: "g1"},
		{JobID: "c", UserID: "u2", GroupID: "g1"},
		{JobID: "d", UserID: "u3", GroupID: "g2"},
	}
	comp := map[string]float64{"a": 0.25, "b": 0.25, "c": 0.3, "d": 0.2}
	l := NewShareLedger(4)
	rep := l.Roll(map[string]int64{"a": 10, "b": 30, "c": 20, "d": 40}, lookupOf(jobs), shareOf(comp))

	byKind := map[string]map[string]ShareEntry{}
	for _, e := range rep {
		if byKind[e.Kind] == nil {
			byKind[e.Kind] = map[string]ShareEntry{}
		}
		byKind[e.Kind][e.ID] = e
	}
	checks := []struct {
		kind, id string
		members  []string
	}{
		{"user", "u1", []string{"a", "b"}},
		{"user", "u2", []string{"c"}},
		{"user", "u3", []string{"d"}},
		{"group", "g1", []string{"a", "b", "c"}},
		{"group", "g2", []string{"d"}},
	}
	for _, ck := range checks {
		var wantBytes int64
		var wantCompiled, wantMeasured float64
		for _, m := range ck.members {
			j := byKind["job"][m]
			wantBytes += j.Bytes
			wantCompiled += j.Compiled
			wantMeasured += j.Measured
		}
		got := entry(t, rep, ck.kind, ck.id)
		if got.Bytes != wantBytes || math.Abs(got.Compiled-wantCompiled) > 1e-9 ||
			math.Abs(got.Measured-wantMeasured) > 1e-9 {
			t.Fatalf("%s %s = %+v, want sum of %v (bytes %d compiled %v measured %v)",
				ck.kind, ck.id, got, ck.members, wantBytes, wantCompiled, wantMeasured)
		}
	}
}

// ReportTop pages the report: kind filter, |residual|-descending order,
// top-N truncation; n <= 0 returns everything.
func TestShareLedgerReportTop(t *testing.T) {
	jobs := []policy.JobInfo{
		{JobID: "a", UserID: "u1", GroupID: "g1"},
		{JobID: "b", UserID: "u2", GroupID: "g1"},
		{JobID: "c", UserID: "u3", GroupID: "g1"},
	}
	// Measured: a=0.5, b=0.3, c=0.2; residuals: a=+0.2, b=-0.1, c=+0.05.
	comp := map[string]float64{"a": 0.3, "b": 0.4, "c": 0.15}
	l := NewShareLedger(4)
	l.Roll(map[string]int64{"a": 50, "b": 30, "c": 20}, lookupOf(jobs), shareOf(comp))

	top := l.ReportTop(2, "job")
	if len(top) != 2 || top[0].ID != "a" || top[1].ID != "b" {
		t.Fatalf("top-2 jobs = %+v, want a then b by |residual|", top)
	}
	for _, e := range l.ReportTop(0, "user") {
		if e.Kind != "user" {
			t.Fatalf("kind filter leaked %+v", e)
		}
	}
	if all := l.ReportTop(0, ""); len(all) != len(l.Report()) {
		t.Fatalf("unfiltered ReportTop returned %d rows, report has %d", len(all), len(l.Report()))
	}
	if all := l.ReportTop(0, "all"); len(all) != len(l.Report()) {
		t.Fatalf(`kind "all" must match every row`)
	}
}
