package jobtable

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"themisio/internal/policy"
)

func info(id string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: nodes}
}

func TestHeartbeatInsertAndRefresh(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Heartbeat(info("a", 4), 0)
	if !tb.Unpublished() {
		t.Fatal("first heartbeat should record a new job")
	}
	tb.Refresh(0)
	tb.Heartbeat(info("a", 4), 500*time.Millisecond)
	if tb.Unpublished() {
		t.Fatal("refresh within timeout should not record a change")
	}
	if st, ok := tb.StatusOf("a", 700*time.Millisecond); !ok || st != Active {
		t.Fatalf("status = %v/%v, want active", st, ok)
	}
	if st, _ := tb.StatusOf("a", 2*time.Second); st != Inactive {
		t.Fatal("job should be inactive after timeout")
	}
	// A heartbeat after going stale counts as a change (job revived).
	tb.Heartbeat(info("a", 4), 3*time.Second)
	if !tb.Unpublished() {
		t.Fatal("revival should record a change")
	}
}

func TestObserveTracksPresence(t *testing.T) {
	tb := New("s1", time.Second)
	claimed := info("a", 4)
	claimed.Presence = 7 // a client's claim is not the table's presence
	tb.Observe(claimed, 0)
	tb.Observe(info("a", 4), time.Millisecond)
	act := tb.Active(time.Millisecond)
	if len(act) != 1 || act[0].Presence != 1 {
		t.Fatalf("active = %+v, want presence 1", act)
	}
	snap := tb.Snapshot()
	if snap[0].Info.Presence != 0 {
		t.Fatalf("row keeps presence %d, want none: it is derived", snap[0].Info.Presence)
	}
	if !snap[0].Servers["s1"] {
		t.Fatal("server set should contain the observing server")
	}
}

func TestHeartbeatDoesNotExtendServers(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Heartbeat(info("a", 4), 0)
	if len(tb.Snapshot()[0].Servers) != 0 {
		t.Fatal("heartbeat alone should not mark I/O presence")
	}
}

func TestActiveSortedAndFiltered(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("b", 1), 0)
	tb.Observe(info("a", 2), 0)
	tb.Observe(info("c", 3), 5*time.Second)
	act := tb.Active(5 * time.Second)
	if len(act) != 1 || act[0].JobID != "c" {
		t.Fatalf("active at 5s = %+v, want only c", act)
	}
	act = tb.Active(5*time.Second + 500*time.Millisecond)
	if len(act) != 1 || act[0].JobID != "c" {
		t.Fatalf("active = %+v, want [c]", act)
	}
	// Sorted order with everything fresh.
	tb2 := New("s1", time.Minute)
	tb2.Observe(info("b", 1), 0)
	tb2.Observe(info("a", 2), 0)
	tb2.Observe(info("c", 3), 0)
	act = tb2.Active(0)
	if len(act) != 3 || act[0].JobID != "a" || act[1].JobID != "b" || act[2].JobID != "c" {
		t.Fatalf("active = %+v, want sorted [a b c]", act)
	}
}

func TestExpire(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 1), 0)
	tb.Observe(info("b", 1), 10*time.Second)
	if n := tb.Expire(10*time.Second, 0); n != 1 {
		t.Fatalf("expired %d entries, want 1 (keep = 4x timeout)", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
	if n := tb.Expire(10*time.Second+time.Millisecond, time.Nanosecond); n != 1 || tb.Len() != 0 {
		t.Fatalf("a keep of 1 ns expired %d, left %d, want the last row gone", n, tb.Len())
	}
}

// allGather is the simulator's λ-sync (bb.SyncTables): snapshot every
// table, then merge each snapshot into every other table.
func allGather(tables []*Table, now time.Duration) {
	snaps := make([][]Entry, len(tables))
	for i, t := range tables {
		snaps[i] = t.Snapshot()
	}
	for i, t := range tables {
		for j, snap := range snaps {
			if i != j {
				t.Merge(snap, now)
			}
		}
	}
}

// Figure 5's scenario: server1 sees jobs 1 (16 nodes) and 2 (8 nodes);
// server2 sees jobs 1 and 3 (8 nodes). After the all-gather both servers
// know all three jobs and job1's presence on two servers.
func TestAllGatherFigure5(t *testing.T) {
	s1 := New("s1", time.Second)
	s2 := New("s2", time.Second)
	s1.Observe(info("job1", 16), 0)
	s1.Observe(info("job2", 8), 0)
	s2.Observe(info("job1", 16), 0)
	s2.Observe(info("job3", 8), 0)

	allGather([]*Table{s1, s2}, time.Millisecond)

	for _, tb := range []*Table{s1, s2} {
		act := tb.Active(time.Millisecond)
		if len(act) != 3 {
			t.Fatalf("%s active = %d jobs, want 3", tb.Owner(), len(act))
		}
		if act[0].JobID != "job1" || act[0].Presence != 2 {
			t.Fatalf("%s job1 presence = %d, want 2", tb.Owner(), act[0].Presence)
		}
		if act[1].Presence != 1 || act[2].Presence != 1 {
			t.Fatalf("%s jobs 2/3 presence = %d/%d, want 1/1", tb.Owner(), act[1].Presence, act[2].Presence)
		}
	}
}

func TestMergeKeepsFreshest(t *testing.T) {
	s1 := New("s1", time.Second)
	s2 := New("s2", time.Second)
	s1.Observe(info("a", 1), 0)
	s2.Observe(info("a", 1), 3*time.Second)
	s1.Merge(s2.Snapshot(), 3*time.Second)
	if st, _ := s1.StatusOf("a", 3*time.Second); st != Active {
		t.Fatal("merge should revive the job with the fresher heartbeat")
	}
	// Merging an older snapshot must not regress.
	old := []Entry{{Info: info("a", 1), Last: 0, Servers: map[string]bool{}}}
	s1.Merge(old, 3*time.Second)
	if st, _ := s1.StatusOf("a", 3*time.Second); st != Active {
		t.Fatal("older snapshot regressed the heartbeat")
	}
}

// Property: an all-gather is idempotent and converges all tables to the
// same active set in one round.
func TestAllGatherConvergenceProperty(t *testing.T) {
	f := func(assign []uint8) bool {
		if len(assign) == 0 {
			return true
		}
		if len(assign) > 60 {
			assign = assign[:60]
		}
		const nServers = 4
		tables := make([]*Table, nServers)
		for i := range tables {
			tables[i] = New("s"+string(rune('0'+i)), time.Second)
		}
		for jid, a := range assign {
			// Each job lands on 1–2 servers derived from its seed byte.
			s1 := int(a) % nServers
			s2 := int(a/4) % nServers
			id := "j" + itoa(jid)
			tables[s1].Observe(policy.JobInfo{JobID: id, UserID: "u", Nodes: 1}, 0)
			tables[s2].Observe(policy.JobInfo{JobID: id, UserID: "u", Nodes: 1}, 0)
		}
		allGather(tables, time.Millisecond)
		ref := tables[0].Active(time.Millisecond)
		for _, tb := range tables[1:] {
			act := tb.Active(time.Millisecond)
			if len(act) != len(ref) {
				return false
			}
			for i := range act {
				if act[i].JobID != ref[i].JobID || act[i].Presence != ref[i].Presence {
					return false
				}
			}
		}
		// Idempotence.
		allGather(tables, time.Millisecond)
		again := tables[0].Active(time.Millisecond)
		if len(again) != len(ref) {
			return false
		}
		for i := range again {
			if again[i].Presence != ref[i].Presence {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// DropServer is the failover path: a failed server's sightings vanish
// from every entry, so presence (and the 1/k deweighting) shifts onto
// the survivors.
func TestDropServerShiftsPresence(t *testing.T) {
	a := New("s1", time.Second)
	b := New("s2", time.Second)
	a.Observe(info("j", 4), 0)
	b.Observe(info("j", 4), 0)
	a.Merge(b.Snapshot(), 0)
	if act := a.Active(0); act[0].Presence != 2 {
		t.Fatalf("presence = %d before drop, want 2", act[0].Presence)
	}
	a.Refresh(0)
	a.DropServer("s2")
	if !a.Unpublished() {
		t.Fatal("DropServer should record a change")
	}
	a.Refresh(0)
	a.DropServer("s2")
	if a.Unpublished() {
		t.Fatal("second DropServer should be a no-op")
	}
	if act := a.Active(0); act[0].Presence != 1 {
		t.Fatalf("presence = %d after drop, want 1", act[0].Presence)
	}
	if !a.Snapshot()[0].Servers["s1"] {
		t.Fatal("surviving server's sighting must remain")
	}
}

// Observe/Heartbeat sightings yield a delta at the next Refresh only when
// membership (or a policy-relevant attribute) of the active set actually
// changes — never per request.
func TestDeltaOnlyOnActiveSetChanges(t *testing.T) {
	tb := New("s1", time.Second)
	if jobs, d := tb.Refresh(0); len(jobs) != 0 || !d.Empty() {
		t.Fatalf("fresh table handed over %+v / %+v", jobs, d)
	}
	tb.Observe(info("a", 4), 0)
	if _, d := tb.Refresh(0); len(d.Added) != 1 {
		t.Fatalf("new job: delta %+v, want it added", d)
	}
	// A hot request path: hundreds of sightings of the same job.
	for i := 0; i < 500; i++ {
		tb.Observe(info("a", 4), time.Duration(i)*time.Millisecond)
		tb.Heartbeat(info("a", 4), time.Duration(i)*time.Millisecond)
	}
	jobs, d := tb.Refresh(500 * time.Millisecond)
	if !d.Empty() {
		t.Fatalf("steady traffic handed over %+v", d)
	}
	if len(jobs) != 1 || jobs[0].JobID != "a" {
		t.Fatalf("set = %+v", jobs)
	}
	// A policy-relevant attribute change (job resized) is an update.
	tb.Observe(info("a", 8), 600*time.Millisecond)
	if _, d := tb.Refresh(600 * time.Millisecond); len(d.Updated) != 1 || d.Updated[0].Nodes != 8 {
		t.Fatalf("node-count change: delta %+v, want a@8 updated", d)
	}
	// Second job arrival is an add; its steady heartbeats are nothing.
	tb.Heartbeat(info("b", 1), 700*time.Millisecond)
	if _, d := tb.Refresh(700 * time.Millisecond); len(d.Added) != 1 {
		t.Fatalf("new job via heartbeat: delta %+v, want it added", d)
	}
	tb.Heartbeat(info("b", 1), 800*time.Millisecond)
	if _, d := tb.Refresh(800 * time.Millisecond); !d.Empty() {
		t.Fatalf("repeat heartbeat handed over %+v", d)
	}
}

// Refresh is the table's one publisher: every writer only records its
// edit — Unpublished turns true and the set handed over last stays as it
// was — and one Refresh then hands all of them over as one delta.
func TestOnlyRefreshPublishes(t *testing.T) {
	const at = 5 * time.Second
	setup := func() (*Table, ActiveSet) {
		tb := New("s1", time.Second)
		tb.Observe(info("old", 1), 0)       // silent since 0: revived below
		tb.Heartbeat(info("ancient", 1), 0) // past 4× the timeout at `at`
		tb.Observe(info("gone", 2), at-900*time.Millisecond)
		for _, id := range []string{"big", "shared"} {
			tb.Observe(info(id, 2), at)
		}
		tb.Merge([]Entry{{Info: info("shared", 2), Last: at, Servers: map[string]bool{"s2": true}}}, at)
		set, _ := tb.Refresh(at)
		return tb, set
	}
	writers := []struct {
		name  string
		write func(*Table)
	}{
		{"Observe of a new job", func(tb *Table) { tb.Observe(info("new", 1), at) }},
		{"Observe of a revived job", func(tb *Table) { tb.Observe(info("old", 1), at) }},
		{"Observe of a resized job", func(tb *Table) { tb.Observe(info("big", 8), at) }},
		{"Heartbeat of a new job", func(tb *Table) { tb.Heartbeat(info("beat", 1), at) }},
		{"Merge adding a job and a server", func(tb *Table) {
			tb.Merge([]Entry{
				{Info: info("peer", 1), Last: at, Servers: map[string]bool{"s3": true}},
				{Info: info("gone", 2), Last: at - 900*time.Millisecond, Servers: map[string]bool{"s3": true}},
			}, at)
		}},
		{"Expire", func(tb *Table) { tb.Expire(at, 800*time.Millisecond) }},
		{"DropServer", func(tb *Table) { tb.DropServer("s2") }},
	}
	check := func(tb *Table, name string, prev, kept ActiveSet) {
		t.Helper()
		if !tb.Unpublished() || !reflect.DeepEqual(prev, kept) {
			t.Fatalf("%s: unpublished %v, handed-over set changed %v", name, tb.Unpublished(), !reflect.DeepEqual(prev, kept))
		}
	}
	// Each writer alone, from a freshly published table.
	for _, w := range writers {
		tb, prev := setup()
		kept := slices.Clone(prev)
		if tb.Unpublished() {
			t.Fatal("unpublished right after Refresh")
		}
		w.write(tb)
		check(tb, w.name, prev, kept)
	}
	// All of them in turn, then the one publication.
	tb, prev := setup()
	kept := slices.Clone(prev)
	for _, w := range writers {
		w.write(tb)
		check(tb, w.name, prev, kept)
	}
	set, d := tb.Refresh(at)
	if tb.Unpublished() {
		t.Fatal("unpublished after Refresh")
	}
	if !reflect.DeepEqual([]policy.JobInfo(set), tb.Active(at)) {
		t.Fatalf("handed over %+v, Active %+v", set, tb.Active(at))
	}
	one := func(id string, nodes int) policy.JobInfo {
		j := info(id, nodes)
		j.Presence = 1
		return j
	}
	want := Delta{
		Added:   []policy.JobInfo{one("beat", 1), one("new", 1), one("old", 1), one("peer", 1)},
		Updated: []policy.JobInfo{one("big", 8), one("shared", 2)},
		Removed: []string{"gone"},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Refresh handed over %+v, want %+v", d, want)
	}
	if len(prev) != 3 || len(set) != 6 || !reflect.DeepEqual(prev, kept) {
		t.Fatalf("handed over %d jobs then %d, want 3 then 6, the first set untouched", len(prev), len(set))
	}
}

// Pure decay — a job going silent — has no writer to record it; Refresh
// (the controller's λ tick) catches it.
func TestRefreshCatchesDecayAndDropServer(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("b", 1), 0)
	tb.Refresh(0)
	// Nothing written after t=0: both decay once the timeout has passed.
	if _, d := tb.Refresh(500 * time.Millisecond); !d.Empty() {
		t.Fatalf("refresh inside the window handed over %+v", d)
	}
	jobs, d := tb.Refresh(3 * time.Second)
	if len(d.Removed) != 2 {
		t.Fatalf("refresh past the timeout handed over %+v, want both removed", d)
	}
	if len(jobs) != 0 {
		t.Fatalf("decayed set still lists %v", jobs)
	}
	// DropServer has no clock: the change lands at the next Refresh.
	a := New("s1", time.Second)
	b := New("s2", time.Second)
	a.Observe(info("j", 4), 0)
	b.Observe(info("j", 4), 0)
	a.Merge(b.Snapshot(), 0)
	a.Refresh(0)
	a.DropServer("s2")
	if !a.Unpublished() {
		t.Fatal("DropServer must record its edit for the next Refresh")
	}
	jobs, d = a.Refresh(0)
	if len(d.Updated) != 1 || jobs[0].Presence != 1 {
		t.Fatalf("after drop+refresh: delta %+v, presence %d, want j updated to 1", d, jobs[0].Presence)
	}
}

// The set Refresh hands over is consistent with Active() at that time.
func TestActiveSnapshotMatchesActive(t *testing.T) {
	tb := New("s1", time.Second)
	for i := 0; i < 10; i++ {
		tb.Observe(info("job-"+itoa(i), i+1), time.Duration(i))
	}
	set, _ := tb.Refresh(time.Duration(9))
	if act := tb.Active(time.Duration(9)); !sameJobs(set, act) {
		t.Fatalf("handed over %+v, Active %+v", set, act)
	}
}
