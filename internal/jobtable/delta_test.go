package jobtable

import (
	"testing"
	"time"
)

// An idle Refresh — no pending edits, no decay possible — returns the
// cached snapshot without republishing: same generation, same slice
// pointer, no allocation.
func TestRefreshIdleReturnsCachedSnapshot(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("b", 2), 10*time.Millisecond)
	gen := tb.Refresh(20 * time.Millisecond)
	before := tb.ActiveSnapshot()
	for i := 1; i <= 5; i++ {
		if g := tb.Refresh(20*time.Millisecond + time.Duration(i)*50*time.Millisecond); g != gen {
			t.Fatalf("idle refresh %d moved generation to %d (was %d)", i, g, gen)
		}
	}
	after := tb.ActiveSnapshot()
	if before != after {
		t.Fatal("idle refreshes must return the cached snapshot, not reallocate")
	}
	allocs := testing.AllocsPerRun(100, func() { tb.Refresh(30 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("idle refresh allocated %.1f times per run, want 0", allocs)
	}
}

// DeltaSince bridges the generation the consumer compiled against to
// the current one, squashed to at most one mention per job.
func TestDeltaSince(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	g1 := tb.Refresh(0)
	if d, ok := tb.DeltaSince(g1); !ok || !d.Empty() {
		t.Fatalf("up-to-date consumer: got %+v/%v, want empty/true", d, ok)
	}

	tb.Observe(info("b", 2), 10*time.Millisecond)
	tb.Refresh(10 * time.Millisecond) // gen+1: add b
	tb.Observe(info("b", 8), 20*time.Millisecond)
	tb.Refresh(20 * time.Millisecond) // gen+2: update b (nodes)
	tb.Observe(info("c", 1), 30*time.Millisecond)
	tb.Refresh(30 * time.Millisecond) // gen+3: add c
	tb.Remove("c")
	tb.Refresh(40 * time.Millisecond) // gen+4: remove c
	tb.Observe(info("a", 16), 50*time.Millisecond)
	tb.Refresh(50 * time.Millisecond) // gen+5: update a

	d, ok := tb.DeltaSince(g1)
	if !ok {
		t.Fatal("ring should bridge 5 generations")
	}
	if len(d.Added) != 1 || d.Added[0].JobID != "b" || d.Added[0].Nodes != 8 {
		t.Fatalf("Added = %+v, want just b with its latest attrs", d.Added)
	}
	if len(d.Updated) != 1 || d.Updated[0].JobID != "a" || d.Updated[0].Nodes != 16 {
		t.Fatalf("Updated = %+v, want just a@16", d.Updated)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("Removed = %v; c arrived and left inside the window, must cancel", d.Removed)
	}

	if _, ok := tb.DeltaSince(tb.Generation() + 3); ok {
		t.Fatal("future generation must report not-bridgeable")
	}
}

// A consumer further behind than the ring retains gets (Delta, false)
// and must full-compile.
func TestDeltaSinceRingEviction(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	g := tb.Refresh(0)
	for i := 0; i < deltaRing+2; i++ {
		now := time.Duration(i+1) * time.Millisecond
		tb.Observe(info("a", 5+i), now)
		tb.Refresh(now)
	}
	if _, ok := tb.DeltaSince(g); ok {
		t.Fatalf("consumer %d generations behind must fall back to full compile", deltaRing+2)
	}
	// One generation behind is always bridgeable.
	if d, ok := tb.DeltaSince(tb.Generation() - 1); !ok || len(d.Updated) != 1 {
		t.Fatalf("one-behind: got %+v/%v", d, ok)
	}
}

// The incremental publish path and the decay-triggered full rebuild
// agree: deltas produced either way replay to the published snapshot.
func TestDeltaCoversDecay(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("b", 2), 10*time.Millisecond)
	g := tb.Refresh(20 * time.Millisecond)
	// a's heartbeat ages out; b stays fresh via heartbeat.
	tb.Heartbeat(info("b", 2), 900*time.Millisecond)
	gen := tb.Refresh(1500 * time.Millisecond)
	if gen == g {
		t.Fatal("decay of a should have republished")
	}
	d, ok := tb.DeltaSince(g)
	if !ok || len(d.Removed) != 1 || d.Removed[0] != "a" {
		t.Fatalf("delta = %+v/%v, want removal of a", d, ok)
	}
	if jobs := tb.ActiveSnapshot().Jobs; len(jobs) != 1 || jobs[0].JobID != "b" {
		t.Fatalf("snapshot = %+v, want just b", jobs)
	}
}

// Lookup resolves a job in the published snapshot by binary search.
func TestActiveSetLookup(t *testing.T) {
	tb := New("s1", time.Second)
	tb.Observe(info("a", 4), 0)
	tb.Observe(info("c", 2), 0)
	tb.Refresh(0)
	snap := tb.ActiveSnapshot()
	if j, ok := snap.Lookup("c"); !ok || j.Nodes != 2 {
		t.Fatalf("Lookup(c) = %+v/%v", j, ok)
	}
	if _, ok := snap.Lookup("b"); ok {
		t.Fatal("Lookup of an absent job must miss")
	}
	var nilSet *ActiveSet
	if _, ok := nilSet.Lookup("a"); ok {
		t.Fatal("nil snapshot must miss")
	}
}
