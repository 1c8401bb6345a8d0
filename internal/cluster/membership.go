// Package cluster is the multi-server fabric of the reproduction: a
// membership manager (join/leave/drain/fail, driven by the same
// timeout idiom as the job table's heartbeat expiry), an epidemic
// push-pull gossip engine that replaces the O(N²) λ-interval job-table
// all-gather with k random peer exchanges per round, and the placement
// ring (rendezvous hashing, internal/chash) that client striping and the
// server's fsys follow as membership changes.
//
// The paper runs ThemisIO as a remote-shared burst buffer — many
// servers, one global fairness contract, with the λ-interval job-table
// synchronization as the only cross-server mechanism (§3.1, §4.1).
// This package supplies the fabric around that mechanism. Randomized
// peer selection follows the greedy/randomized-selection analyses of
// Kaczmarz-style methods (arXiv:1612.07838): uniform random fan-out is
// within a constant of the best fixed schedule and needs no global
// coordination, and push-pull epidemic exchange converges every
// member's view in O(log N) rounds with high probability.
package cluster

import (
	"sort"
	"sync"
	"time"

	"themisio/internal/chash"
)

// State is a member's lifecycle state.
type State uint8

// Member lifecycle states. Order encodes rumor precedence: for equal
// incarnations a later (worse) state overrides an earlier one, so a
// failure rumor beats a stale alive claim and a refutation must bump
// the incarnation to win.
const (
	// StateAlive members serve I/O and own ring segments.
	StateAlive State = iota
	// StateDraining members still serve and gossip but own no ring
	// segment: new placement avoids them so they can empty and leave.
	StateDraining
	// StateSuspect members missed contact; they keep their ring segment
	// until the failure timeout confirms (avoids placement flapping).
	StateSuspect
	// StateFailed members timed out; their ring segment reassigns and
	// their job-table sightings are dropped (presence deweighting
	// shifts to the survivors).
	StateFailed
	// StateLeft members departed gracefully.
	StateLeft
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDraining:
		return "draining"
	case StateSuspect:
		return "suspect"
	case StateFailed:
		return "failed"
	case StateLeft:
		return "left"
	}
	return "unknown"
}

// InRing reports whether a member in this state owns ring segments.
func (s State) InRing() bool { return s == StateAlive || s == StateSuspect }

// Gossipable reports whether a member in this state is a useful gossip
// target (suspects are included so one missed round does not partition
// them; failed and left members are not contacted).
func (s State) Gossipable() bool {
	return s == StateAlive || s == StateDraining || s == StateSuspect
}

// Member is the gossiped membership record: address, state, and an
// incarnation number that totally orders rumors about the same member
// without comparing timestamps across clock domains.
type Member struct {
	Addr        string
	State       State
	Incarnation uint64
}

// supersedes reports whether rumor a beats rumor b about the same
// member: higher incarnation wins outright; equal incarnations resolve
// to the worse state.
func supersedes(a, b Member) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.State > b.State
}

// entry is the local bookkeeping around a gossiped record.
type entry struct {
	m     Member
	last  time.Duration // most recent direct or gossiped sighting
	fails int           // consecutive failed direct contacts
}

// DefaultFailTimeout is the sighting age at which a suspect member is
// declared failed when none is configured; like the job table's
// heartbeat expiry it is a small multiple of the sync interval.
const DefaultFailTimeout = 5 * time.Second

// DefaultFailAfter is the consecutive direct-contact failures that turn
// an alive member suspect.
const DefaultFailAfter = 2

// Membership tracks the cluster's member set for one server and derives
// the placement ring from it. Time is expressed as offsets from an
// arbitrary epoch (the jobtable convention) so the same code runs under
// the live wall clock and the simulator's virtual clock. Safe for
// concurrent use.
type Membership struct {
	mu      sync.RWMutex
	self    string
	timeout time.Duration
	after   int
	entries map[string]*entry
	ring    *chash.Ring
	epoch   uint64
}

// NewMembership returns a membership view owned by self, with the given
// failure timeout (non-positive selects DefaultFailTimeout). The view
// starts as a single-member cluster: self, alive.
func NewMembership(self string, timeout time.Duration) *Membership {
	if timeout <= 0 {
		timeout = DefaultFailTimeout
	}
	m := &Membership{
		self:    self,
		timeout: timeout,
		after:   DefaultFailAfter,
		entries: map[string]*entry{},
		ring:    chash.New(0),
	}
	m.entries[self] = &entry{m: Member{Addr: self, State: StateAlive, Incarnation: 1}}
	m.ring.Add(self)
	return m
}

// Self returns the owning server's address.
func (m *Membership) Self() string { return m.self }

// Ring returns the placement ring (live view; it rebalances as
// membership changes).
func (m *Membership) Ring() *chash.Ring { return m.ring }

// Epoch returns a counter that increments whenever ring ownership
// changes; placement caches compare epochs to detect rebalances.
func (m *Membership) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// newEntryLocked registers a previously-unknown member. The placeholder
// state is StateLeft — out of the ring — so the setLocked that follows
// sees the ring-ownership flip and adds the member to the ring.
// Caller holds m.mu.
func (m *Membership) newEntryLocked(addr string) *entry {
	e := &entry{m: Member{Addr: addr, State: StateLeft}}
	m.entries[addr] = e
	return e
}

// setLocked installs rec, updating the ring when ring ownership flips.
// Caller holds m.mu.
func (m *Membership) setLocked(e *entry, rec Member) {
	was := e.m.State.InRing()
	e.m = rec
	now := rec.State.InRing()
	if was != now {
		if now {
			m.ring.Add(rec.Addr)
		} else {
			m.ring.Remove(rec.Addr)
		}
		m.epoch++
	}
}

// Sighting records a successful direct contact with addr at time now: a
// gossip exchange completed or a join/heartbeat arrived. A sighting
// clears the failure counter and revives a suspect or failed member by
// bumping its incarnation past the standing rumor (the contacted member
// is observably alive, so the reviving record supersedes).
func (m *Membership) Sighting(addr string, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[addr]
	if !ok {
		e = m.newEntryLocked(addr)
		m.setLocked(e, Member{Addr: addr, State: StateAlive, Incarnation: 1})
		e.last = now
		return
	}
	e.fails = 0
	e.last = now
	if e.m.State == StateSuspect || e.m.State == StateFailed {
		m.setLocked(e, Member{Addr: addr, State: StateAlive, Incarnation: e.m.Incarnation + 1})
	}
}

// ReportFailure records a failed direct contact with addr at time now.
// After DefaultFailAfter consecutive failures an alive or draining
// member turns suspect; Tick later confirms the failure once the
// sighting age passes the timeout.
func (m *Membership) ReportFailure(addr string, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[addr]
	if !ok || addr == m.self {
		return
	}
	e.fails++
	if e.fails >= m.after && (e.m.State == StateAlive || e.m.State == StateDraining) {
		m.setLocked(e, Member{Addr: addr, State: StateSuspect, Incarnation: e.m.Incarnation})
	}
}

// Tick advances failure detection at time now and returns the addresses
// newly declared failed (the caller drops their job-table sightings and
// the ring has already reassigned their segments). A suspect whose last
// sighting is older than the failure timeout is confirmed failed.
func (m *Membership) Tick(now time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var failed []string
	for addr, e := range m.entries {
		if addr == m.self {
			continue
		}
		if e.m.State == StateSuspect && now-e.last > m.timeout {
			m.setLocked(e, Member{Addr: addr, State: StateFailed, Incarnation: e.m.Incarnation})
			failed = append(failed, addr)
		}
	}
	sort.Strings(failed)
	return failed
}

// Merge folds a gossiped membership digest into the view at time now,
// applying the rumor-precedence rule per member. A rumor that the owner
// itself is suspect or failed is refuted by bumping the owner's own
// incarnation past it (the SWIM refutation). Returns the addresses
// newly declared failed by the merge.
func (m *Membership) Merge(records []Member, now time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var failed []string
	for _, rec := range records {
		if rec.Addr == m.self {
			// Refute a rumor accusing self of being suspect or failed by
			// out-incarnating it with the actual local state (the SWIM
			// refutation). Echoes of self-chosen states — draining,
			// left — are not accusations and must not be "refuted", or
			// a drain would revert the moment it gossips back.
			self := m.entries[m.self]
			accusation := rec.State == StateSuspect || rec.State == StateFailed
			if accusation && rec.Incarnation >= self.m.Incarnation && self.m.State != StateLeft {
				m.setLocked(self, Member{Addr: m.self, State: self.m.State, Incarnation: rec.Incarnation + 1})
			}
			continue
		}
		e, ok := m.entries[rec.Addr]
		if !ok {
			e = m.newEntryLocked(rec.Addr)
			e.last = now
			m.setLocked(e, rec)
			if rec.State == StateFailed {
				failed = append(failed, rec.Addr)
			}
			continue
		}
		if supersedes(rec, e.m) {
			wasFailed := e.m.State == StateFailed
			m.setLocked(e, rec)
			if rec.State == StateFailed && !wasFailed {
				failed = append(failed, rec.Addr)
			}
			if rec.State == StateAlive || rec.State == StateDraining {
				e.last = now
				e.fails = 0
			}
		}
	}
	sort.Strings(failed)
	return failed
}

// Snapshot returns the full membership digest, sorted by address — what
// a gossip round sends.
func (m *Membership) Snapshot() []Member {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Member, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e.m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Peers returns the gossipable members other than self, sorted — the
// pool a gossip round samples its fan-out from.
func (m *Membership) Peers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for addr, e := range m.entries {
		if addr != m.self && e.m.State.Gossipable() {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// IsAlive reports whether addr is a known member in StateAlive — the
// eligibility check rebalancing applies to every source and target of
// a planned stripe migration (moving data toward or away from a
// suspect, draining or failed member is failover recovery's job, not
// the planner's).
func (m *Membership) IsAlive(addr string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[addr]
	return ok && e.m.State == StateAlive
}

// Lookup returns the member record for addr.
func (m *Membership) Lookup(addr string) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[addr]
	if !ok {
		return Member{}, false
	}
	return e.m, true
}

// Drain marks self draining: still serving and gossiping, but owning no
// ring segment, so placement moves off this server ahead of a graceful
// leave. The state change bumps the incarnation so it propagates.
func (m *Membership) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	self := m.entries[m.self]
	if self.m.State == StateDraining {
		return
	}
	m.setLocked(self, Member{Addr: m.self, State: StateDraining, Incarnation: self.m.Incarnation + 1})
}

// Leave marks self departed; the caller gossips the final digest out
// before shutting down.
func (m *Membership) Leave() {
	m.mu.Lock()
	defer m.mu.Unlock()
	self := m.entries[m.self]
	if self.m.State == StateLeft {
		return
	}
	m.setLocked(self, Member{Addr: m.self, State: StateLeft, Incarnation: self.m.Incarnation + 1})
}
