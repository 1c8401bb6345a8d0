package jobtable

import (
	"math/rand"
	"testing"
	"time"

	"themisio/internal/policy"
)

// An idle Refresh — no pending edits, no decay possible — hands back the
// set it holds: the same slice, an empty delta, no allocation.
func TestRefreshIdleReturnsCachedSnapshot(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("b", 2), 10*time.Millisecond)
	before, _ := tb.Refresh(20 * time.Millisecond)
	for i := 1; i <= 5; i++ {
		jobs, d := tb.Refresh(20*time.Millisecond + time.Duration(i)*50*time.Millisecond)
		if !d.Empty() {
			t.Fatalf("idle refresh %d handed over %+v", i, d)
		}
		if &jobs[0] != &before[0] {
			t.Fatal("idle refreshes must return the held set, not reallocate")
		}
	}
	allocs := testing.AllocsPerRun(100, func() { tb.Refresh(30 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("idle refresh allocated %.1f times per run, want 0", allocs)
	}
}

// Refresh's delta is the change since the previous Refresh, squashed to
// at most one mention per job with its latest attributes, however many
// edits fell in between.
func TestRefreshDeltaSquashesEdits(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	if _, d := tb.Refresh(0); len(d.Added) != 1 {
		t.Fatalf("first Refresh handed over %+v, want a added", d)
	}
	if _, d := tb.Refresh(0); !d.Empty() {
		t.Fatalf("up-to-date consumer: got %+v, want empty", d)
	}

	tb.Observe(info("b", 2), 10*time.Millisecond) // add b
	tb.Observe(info("b", 8), 20*time.Millisecond) // update b (nodes)
	// add c, a peer's sighting from 0, then expire it
	tb.Merge([]Entry{{Info: info("c", 1), Servers: map[string]bool{"s2": true}}}, 30*time.Millisecond)
	tb.Observe(info("a", 16), 50*time.Millisecond) // update a
	tb.Expire(50*time.Millisecond, 45*time.Millisecond)

	_, d := tb.Refresh(50 * time.Millisecond)
	if len(d.Added) != 1 || d.Added[0].JobID != "b" || d.Added[0].Nodes != 8 {
		t.Fatalf("Added = %+v, want just b with its latest attrs", d.Added)
	}
	if len(d.Updated) != 1 || d.Updated[0].JobID != "a" || d.Updated[0].Nodes != 16 {
		t.Fatalf("Updated = %+v, want just a@16", d.Updated)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("Removed = %v; c arrived and left between two Refreshes, must cancel", d.Removed)
	}
}

// Replaying every delta Refresh hands over reproduces the active set.
// Over seeded random churn — arrivals, resizes, revivals, merged
// presence, failover scrubs, expiry and decay, several edits
// per Refresh — the replayed set, the set Refresh returns and Active(now)
// agree after every Refresh, and every delta is well formed: an add is
// new, an update or a removal names a member, and an update changes it.
func TestRefreshDeltasReplayToActiveSet(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New("s0", time.Second)
		model := map[string]policy.JobInfo{}
		var now time.Duration
		for step := 0; step < 300; step++ {
			now += time.Duration(rng.Intn(300)) * time.Millisecond
			id := "j" + itoa(rng.Intn(12))
			server := "s" + itoa(1+rng.Intn(3))
			switch rng.Intn(7) {
			case 0, 1:
				tb.Observe(info(id, 1+rng.Intn(3)), now)
			case 2:
				tb.Heartbeat(info(id, 1+rng.Intn(3)), now)
			case 3:
				last := now - time.Duration(rng.Intn(2000))*time.Millisecond
				tb.Merge([]Entry{{Info: info(id, 1+rng.Intn(3)), Last: last, Servers: map[string]bool{server: true}}}, now)
			case 4:
				tb.DropServer(server)
			case 5:
				tb.Expire(now, time.Duration(rng.Intn(2000))*time.Millisecond)
			case 6:
				tb.Expire(now, 0)
			}
			if rng.Intn(3) != 0 {
				continue
			}
			jobs, d := tb.Refresh(now)
			for _, j := range d.Added {
				if _, ok := model[j.JobID]; ok {
					t.Fatalf("seed %d step %d: %s added twice", seed, step, j.JobID)
				}
				model[j.JobID] = j
			}
			for _, j := range d.Updated {
				if old, ok := model[j.JobID]; !ok || old == j {
					t.Fatalf("seed %d step %d: update of %s from %+v to %+v", seed, step, j.JobID, old, j)
				}
				model[j.JobID] = j
			}
			for _, id := range d.Removed {
				if _, ok := model[id]; !ok {
					t.Fatalf("seed %d step %d: %s removed but not a member", seed, step, id)
				}
				delete(model, id)
			}
			want := tb.Active(now)
			if !sameJobs(jobs, want) {
				t.Fatalf("seed %d step %d: Refresh returned %+v, Active %+v", seed, step, jobs, want)
			}
			if len(model) != len(want) {
				t.Fatalf("seed %d step %d: replayed %d jobs, Active %d", seed, step, len(model), len(want))
			}
			for _, j := range want {
				if model[j.JobID] != j {
					t.Fatalf("seed %d step %d: replayed %+v, Active %+v", seed, step, model[j.JobID], j)
				}
			}
		}
	}
}

func sameJobs(a, b []policy.JobInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Decay has no writer: Refresh's full rebuild finds it, and its delta
// agrees with the incremental path's.
func TestDeltaCoversDecay(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("b", 2), 10*time.Millisecond)
	tb.Refresh(20 * time.Millisecond)
	// a's heartbeat ages out; b stays fresh via heartbeat.
	tb.Heartbeat(info("b", 2), 900*time.Millisecond)
	jobs, d := tb.Refresh(1500 * time.Millisecond)
	if len(d.Removed) != 1 || d.Removed[0] != "a" || len(d.Added)+len(d.Updated) != 0 {
		t.Fatalf("delta = %+v, want removal of a", d)
	}
	if len(jobs) != 1 || jobs[0].JobID != "b" {
		t.Fatalf("set = %+v, want just b", jobs)
	}
}

// Lookup resolves a job in the handed-over set by binary search.
func TestActiveSetLookup(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("c", 2), 0)
	set, _ := tb.Refresh(0)
	if j, ok := set.Lookup("c"); !ok || j.Nodes != 2 {
		t.Fatalf("Lookup(c) = %+v/%v", j, ok)
	}
	if _, ok := set.Lookup("b"); ok {
		t.Fatal("Lookup of an absent job must miss")
	}
	var empty ActiveSet
	if _, ok := empty.Lookup("a"); ok {
		t.Fatal("empty set must miss")
	}
}
