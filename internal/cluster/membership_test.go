package cluster

import (
	"fmt"
	"testing"
	"time"
)

func TestMembershipSingleNode(t *testing.T) {
	m := NewMembership("a", 0)
	if got := m.Peers(); len(got) != 0 {
		t.Fatalf("lone member has peers %v", got)
	}
	self, ok := m.Lookup("a")
	if !ok || self.State != StateAlive || self.Incarnation != 1 {
		t.Fatalf("self = %+v, ok=%v", self, ok)
	}
	if nodes := m.Ring().Nodes(); len(nodes) != 1 || nodes[0] != "a" {
		t.Fatalf("ring = %v", nodes)
	}
}

func TestMembershipSightingAndFailure(t *testing.T) {
	m := NewMembership("a", 100*time.Millisecond)
	m.Sighting("b", 0)
	if b, _ := m.Lookup("b"); b.State != StateAlive {
		t.Fatalf("b = %+v after sighting", b)
	}
	epoch := m.Epoch()

	// Two consecutive contact failures turn b suspect; the ring keeps b
	// (no placement flapping on one missed round).
	m.ReportFailure("b", 10*time.Millisecond)
	m.ReportFailure("b", 20*time.Millisecond)
	if b, _ := m.Lookup("b"); b.State != StateSuspect {
		t.Fatalf("b = %+v after %d failures", b, DefaultFailAfter)
	}
	if m.Epoch() != epoch {
		t.Fatal("suspicion must not move ring segments")
	}

	// The timeout confirms the failure: ring reassigns, epoch bumps.
	failed := m.Tick(200 * time.Millisecond)
	if len(failed) != 1 || failed[0] != "b" {
		t.Fatalf("Tick failed %v", failed)
	}
	if b, _ := m.Lookup("b"); b.State != StateFailed {
		t.Fatalf("b = %+v after timeout", b)
	}
	if m.Epoch() == epoch {
		t.Fatal("failure must reassign ring segments")
	}
	if nodes := m.Ring().Nodes(); len(nodes) != 1 || nodes[0] != "a" {
		t.Fatalf("ring = %v after failure", nodes)
	}

	// A direct sighting revives b with a higher incarnation, superseding
	// the failure rumor.
	m.Sighting("b", 300*time.Millisecond)
	b, _ := m.Lookup("b")
	if b.State != StateAlive || b.Incarnation != 2 {
		t.Fatalf("b = %+v after revival", b)
	}
}

func TestMembershipRumorPrecedence(t *testing.T) {
	m := NewMembership("a", 0)
	m.Merge([]Member{{Addr: "b", State: StateAlive, Incarnation: 3}}, 0)

	// A stale alive rumor (lower incarnation) must not downgrade.
	m.Merge([]Member{{Addr: "b", State: StateFailed, Incarnation: 2}}, 0)
	if b, _ := m.Lookup("b"); b.State != StateAlive {
		t.Fatalf("stale failure applied: %+v", b)
	}

	// Same incarnation, worse state wins.
	failed := m.Merge([]Member{{Addr: "b", State: StateFailed, Incarnation: 3}}, 0)
	if b, _ := m.Lookup("b"); b.State != StateFailed {
		t.Fatalf("equal-incarnation failure ignored: %+v", b)
	}
	if len(failed) != 1 || failed[0] != "b" {
		t.Fatalf("Merge reported failed %v", failed)
	}

	// Higher incarnation (the refutation) wins over failed.
	m.Merge([]Member{{Addr: "b", State: StateAlive, Incarnation: 4}}, 0)
	if b, _ := m.Lookup("b"); b.State != StateAlive {
		t.Fatalf("refutation ignored: %+v", b)
	}
}

func TestMembershipSelfRefutation(t *testing.T) {
	m := NewMembership("a", 0)
	// A rumor that self has failed is refuted by out-incarnating it.
	m.Merge([]Member{{Addr: "a", State: StateFailed, Incarnation: 7}}, 0)
	self, _ := m.Lookup("a")
	if self.State != StateAlive || self.Incarnation != 8 {
		t.Fatalf("self = %+v after refutation", self)
	}
	if nodes := m.Ring().Nodes(); len(nodes) != 1 {
		t.Fatalf("ring lost self: %v", nodes)
	}
	// An echo of a self-chosen drain is not an accusation — it must
	// stick, not revert the drain.
	m.Drain()
	m.Merge([]Member{{Addr: "a", State: StateDraining, Incarnation: 9}}, 0)
	if self, _ := m.Lookup("a"); self.State != StateDraining || self.Incarnation != 9 {
		t.Fatalf("self = %+v after drain echo (drain reverted?)", self)
	}
	// An accusation while draining is refuted with the draining state.
	m.Merge([]Member{{Addr: "a", State: StateFailed, Incarnation: 11}}, 0)
	if self, _ := m.Lookup("a"); self.State != StateDraining || self.Incarnation != 12 {
		t.Fatalf("self = %+v after accusation while draining", self)
	}
}

func TestMembershipDrainAndLeave(t *testing.T) {
	m := NewMembership("a", 0)
	m.Sighting("b", 0)
	m.Drain()
	self, _ := m.Lookup("a")
	if self.State != StateDraining || self.Incarnation != 2 {
		t.Fatalf("self = %+v after drain", self)
	}
	if nodes := m.Ring().Nodes(); len(nodes) != 1 || nodes[0] != "b" {
		t.Fatalf("draining member still owns ring segments: %v", nodes)
	}
	// Draining members still gossip.
	m2 := NewMembership("b", 0)
	m2.Merge(m.Snapshot(), 0)
	if a, _ := m2.Lookup("a"); a.State != StateDraining {
		t.Fatalf("drain did not propagate: %+v", a)
	}
	if got := m2.Peers(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("peer pool %v (draining member should gossip)", got)
	}

	m.Leave()
	if self, _ := m.Lookup("a"); self.State != StateLeft || self.Incarnation != 3 {
		t.Fatalf("self = %+v after leave", self)
	}
}

// TestMembershipGossipConvergence runs the pure merge protocol over a
// simulated cluster: with fan-out 1 every view converges to the full
// member set within O(log N) rounds.
func TestMembershipGossipConvergence(t *testing.T) {
	const n = 16
	views := make([]*Membership, n)
	for i := range views {
		views[i] = NewMembership(fmt.Sprintf("s%02d", i), 0)
	}
	// Everyone knows only the seed (s00) plus itself, as after MsgJoin.
	for i := 1; i < n; i++ {
		views[i].Merge(views[0].Snapshot(), 0)
		views[0].Merge([]Member{{Addr: views[i].Self(), State: StateAlive, Incarnation: 1}}, 0)
	}
	full := func() bool {
		for _, v := range views {
			if len(v.Snapshot()) != n {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; !full() && rounds < 20; rounds++ {
		for i, v := range views {
			peers := v.Peers()
			peer := peers[(i+rounds)%len(peers)] // deterministic stand-in for rand
			var pv *Membership
			for _, w := range views {
				if w.Self() == peer {
					pv = w
				}
			}
			// Push-pull: both sides merge.
			pv.Merge(v.Snapshot(), 0)
			v.Merge(pv.Snapshot(), 0)
		}
	}
	if !full() {
		t.Fatalf("views not converged after %d rounds", rounds)
	}
	if rounds > 8 { // log2(16)=4; allow slack for the deterministic schedule
		t.Fatalf("convergence took %d rounds, want O(log N)", rounds)
	}
}
