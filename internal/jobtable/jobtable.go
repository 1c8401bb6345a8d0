// Package jobtable implements the job status table maintained by each
// ThemisIO server's job monitor (§4.1) and the table synchronization used
// for λ-delayed global fairness (§3.1).
//
// Each server tracks the jobs it has heard from — via heartbeats or via
// job metadata embedded in I/O requests — and marks a job inactive when no
// heartbeat arrives for a configurable timeout. Every λ interval the
// controllers exchange their tables (an all-gather originally; an
// epidemic push-pull gossip since internal/cluster) so that every server
// converges on the global set of active jobs; a globally unfair token
// assignment therefore lasts a small multiple of λ. Each entry also
// records the set of servers
// where the job is I/O-active; a job present on k servers is deweighted by
// 1/k on each (Figure 5's token-count reconciliation), so that its
// aggregate share across the cluster matches the policy.
package jobtable

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/policy"
)

// Delta is the job-set change between two Refreshes, in the form the
// policy compiler's incremental entry point consumes.
type Delta = policy.Delta

// Status of a job as seen by one server.
type Status int

const (
	// Active means a heartbeat arrived within the timeout window.
	Active Status = iota
	// Inactive means the job has gone silent; its tokens are reclaimed.
	Inactive
)

// String returns "active" or "inactive".
func (s Status) String() string {
	if s == Active {
		return "active"
	}
	return "inactive"
}

// Entry is one row of the job status table.
type Entry struct {
	Info policy.JobInfo
	// Last is the time of the most recent heartbeat (or embedded-metadata
	// sighting) for the job, in the owning clock's domain.
	Last time.Duration
	// Servers is the set of server ids on which the job has been observed
	// doing I/O. Populated locally by Observe and unioned during Merge.
	Servers map[string]bool
	// Demand counts I/O requests observed from the job since creation;
	// used only for reporting.
	Demand int64
}

func (e *Entry) clone() Entry {
	cp := *e
	cp.Servers = make(map[string]bool, len(e.Servers))
	for s := range e.Servers {
		cp.Servers[s] = true
	}
	return cp
}

// ActiveSet is the active job set as Refresh hands it over: sorted by
// JobID, Presence filled in, and never mutated — a change is a new
// slice, so a holder may keep it across later Refreshes.
type ActiveSet []policy.JobInfo

// Lookup returns the set's info for the job, resolved by binary search —
// the ledger's lazy materialiser, so a λ roll never walks the full set.
func (s ActiveSet) Lookup(job string) (policy.JobInfo, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].JobID >= job })
	if i < len(s) && s[i].JobID == job {
		return s[i], true
	}
	return policy.JobInfo{}, false
}

// Table is a thread-safe job status table. Time is expressed as
// time.Duration offsets from an arbitrary epoch so the table works
// identically under the discrete-event simulator's virtual clock and the
// live server's wall clock.
type Table struct {
	mu      sync.RWMutex
	owner   string
	entries map[string]*Entry
	timeout time.Duration

	// The writers (Observe, Heartbeat, Merge, Expire, DropServer, Remove)
	// only record the job ids whose row changed in pending and raise
	// dirty, so a sighting costs O(1) whatever the table's size. Refresh
	// folds them into pub, the set it last handed over, with one merge
	// instead of re-sorting all entries, and the same merge yields the
	// delta. dirty is read without the lock (Unpublished). minLast
	// lower-bounds the heartbeat of every job in pub, so an idle Refresh
	// proves "no decay possible" in O(1).
	pub     ActiveSet
	pending map[string]struct{}
	dirty   atomic.Bool
	minLast time.Duration
}

// DefaultTimeout is the heartbeat expiry used when none is configured;
// the paper uses "a predefined period of time", and production heartbeat
// periods are O(seconds).
const DefaultTimeout = 5 * time.Second

// New returns an empty table owned by the named server, with the given
// heartbeat timeout. A non-positive timeout selects DefaultTimeout.
func New(owner string, timeout time.Duration) *Table {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Table{
		owner:   owner,
		entries: make(map[string]*Entry),
		timeout: timeout,
		pending: make(map[string]struct{}),
		minLast: time.Duration(math.MaxInt64),
	}
}

// Owner returns the server id that owns this table.
func (t *Table) Owner() string { return t.owner }

// Timeout returns the heartbeat expiry window.
func (t *Table) Timeout() time.Duration { return t.timeout }

// Heartbeat records a liveness sighting of the job at time now, inserting
// the job if it is new. Heartbeats assert liveness but not I/O activity on
// this server, so they do not extend Servers.
func (t *Table) Heartbeat(info policy.JobInfo, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(info, now, false)
}

// Observe records that an I/O request from the job arrived at time now on
// this server. Embedded job metadata counts as a liveness signal, exactly
// as in the paper where servers learn job state "purely based on real-time
// I/O behavior".
func (t *Table) Observe(info policy.JobInfo, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(info, now, true).Demand++
}

// notePendingLocked marks the job id as touched since the last Refresh
// and folds its heartbeat into the conservative minLast bound (only
// active entries matter: an inactive one is not in pub, so it cannot
// decay out of it).
func (t *Table) notePendingLocked(id string, now time.Duration) {
	t.pending[id] = struct{}{}
	t.dirty.Store(true)
	if e, ok := t.entries[id]; ok && now-e.Last <= t.timeout && e.Last < t.minLast {
		t.minLast = e.Last
	}
}

// touch implements Heartbeat/Observe under t.mu: it records the sighting,
// marks the job pending if the active set could change (new job, stale
// job revived, attributes or this server's presence moved), and returns
// the entry.
func (t *Table) touch(info policy.JobInfo, now time.Duration, io bool) *Entry {
	e, ok := t.entries[info.JobID]
	changed := !ok
	if !ok {
		e = &Entry{Info: info, Last: now, Servers: map[string]bool{}}
		t.entries[info.JobID] = e
	} else {
		changed = now-e.Last > t.timeout // stale → active counts as a change
		next := info
		next.Presence = e.Info.Presence // presence is derived, not client-supplied
		if e.Info != next {
			changed = true // policy-relevant metadata moved (nodes, user, …)
		}
		e.Info = next
		if now > e.Last {
			e.Last = now
		}
	}
	if io && !e.Servers[t.owner] {
		e.Servers[t.owner] = true
		changed = true
	}
	if changed {
		t.notePendingLocked(info.JobID, now)
	}
	return e
}

// Active returns the jobs whose last heartbeat is within the timeout as of
// now, sorted by JobID, with Presence set to the size of each job's
// observed server set (minimum 1).
func (t *Table) Active(now time.Duration) []policy.JobInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	jobs, _ := t.activeAndMinLocked(now)
	return jobs
}

// activeAndMinLocked is the full O(n log n) rebuild, also returning the
// exact minimum heartbeat among active entries (MaxInt64 if none).
func (t *Table) activeAndMinLocked(now time.Duration) (ActiveSet, time.Duration) {
	var out ActiveSet
	min := time.Duration(math.MaxInt64)
	for _, e := range t.entries {
		if now-e.Last <= t.timeout {
			out = append(out, e.active())
			if e.Last < min {
				min = e.Last
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out, min
}

// active is the entry's row in an active set: its info with Presence
// set to the size of its observed server set, minimum 1.
func (e *Entry) active() policy.JobInfo {
	info := e.Info
	info.Presence = max(len(e.Servers), 1)
	return info
}

// applyPendingLocked merges the pending job ids into pub, producing the
// next active set and its delta. Only valid when no job outside pending
// can have decayed (minLast-guarded by the caller).
func (t *Table) applyPendingLocked(now time.Duration) (ActiveSet, Delta) {
	ids := make([]string, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	cur := t.pub
	out := make(ActiveSet, 0, len(cur)+len(ids))
	var d Delta
	i := 0
	for _, id := range ids {
		for i < len(cur) && cur[i].JobID < id {
			out = append(out, cur[i])
			i++
		}
		var old policy.JobInfo
		had := i < len(cur) && cur[i].JobID == id
		if had {
			old = cur[i]
			i++
		}
		e, ok := t.entries[id]
		if ok && now-e.Last <= t.timeout {
			in := e.active()
			out = append(out, in)
			switch {
			case !had:
				d.Added = append(d.Added, in)
			case in != old:
				d.Updated = append(d.Updated, in)
			}
		} else if had {
			d.Removed = append(d.Removed, id)
		}
	}
	out = append(out, cur[i:]...)
	return out, d
}

// diffJobs computes the delta between two sorted job slices.
func diffJobs(old, new ActiveSet) Delta {
	var d Delta
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i].JobID == new[j].JobID:
			if old[i] != new[j] {
				d.Updated = append(d.Updated, new[j])
			}
			i++
			j++
		case old[i].JobID < new[j].JobID:
			d.Removed = append(d.Removed, old[i].JobID)
			i++
		default:
			d.Added = append(d.Added, new[j])
			j++
		}
	}
	for ; i < len(old); i++ {
		d.Removed = append(d.Removed, old[i].JobID)
	}
	for ; j < len(new); j++ {
		d.Added = append(d.Added, new[j])
	}
	return d
}

// Unpublished reports whether a writer has recorded an edit that the
// next Refresh has yet to fold in. It takes no lock.
func (t *Table) Unpublished() bool { return t.dirty.Load() }

// Refresh is the table's one publisher. It folds the writers' pending
// edits, and any decay (heartbeats aged past the timeout as of now), into
// the active set, and returns that set with its change since the
// previous Refresh: each job in at most one of the delta's lists, with
// its latest attributes, however many edits it saw in between. The
// delta is empty when nothing changed, and the set is then the one
// handed over last time. The controller's compile is the only caller, so
// the delta is exactly what its scheduler has not yet seen.
//
// The idle pass is O(1): with no pending edits and minLast proving no
// job in the set can have aged out, Refresh returns the set it holds
// without allocating or walking the entries. Otherwise, when minLast
// proves no job can have decayed, the new set is a single merge of the
// pending ids against the current one (no map walk and no full sort);
// when decay is possible it is the full rebuild, diffed against the
// current set.
func (t *Table) Refresh(now time.Duration) (ActiveSet, Delta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fresh := now-t.minLast <= t.timeout
	if !t.dirty.Load() && fresh {
		return t.pub, Delta{}
	}
	var jobs ActiveSet
	var d Delta
	if fresh {
		jobs, d = t.applyPendingLocked(now)
	} else {
		jobs, t.minLast = t.activeAndMinLocked(now)
		d = diffJobs(t.pub, jobs)
	}
	t.dirty.Store(false)
	clear(t.pending)
	if !d.Empty() {
		t.pub = jobs
	}
	return t.pub, d
}

// StatusOf returns the job's status as of now and whether it is known.
func (t *Table) StatusOf(jobID string, now time.Duration) (Status, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[jobID]
	if !ok {
		return Inactive, false
	}
	if now-e.Last <= t.timeout {
		return Active, true
	}
	return Inactive, true
}

// Expire removes entries whose heartbeat age exceeds keep (defaulting to
// 4× the timeout when keep <= 0) and returns the number removed. The live
// server destroys the expired jobs' connection mappings when this fires
// (§4.2).
func (t *Table) Expire(now, keep time.Duration) int {
	if keep <= 0 {
		keep = 4 * t.timeout
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, e := range t.entries {
		if now-e.Last > keep {
			delete(t.entries, id)
			t.pending[id] = struct{}{}
			t.dirty.Store(true)
			n++
		}
	}
	return n
}

// Remove deletes the job outright (client notified exit, §4.2); the next
// Refresh folds the departure in.
func (t *Table) Remove(jobID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, jobID)
	t.pending[jobID] = struct{}{}
	t.dirty.Store(true)
}

// Len returns the number of entries (active or not).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Snapshot returns a deep copy of all entries, sorted by JobID. This is
// what a controller sends to its peers during the λ all-gather.
func (t *Table) Snapshot() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.JobID < out[j].Info.JobID })
	return out
}

// Merge folds a peer snapshot into the table: new jobs are learned,
// fresher heartbeats win, and server sets are unioned (the token-count
// addition of Figure 5). Each job whose activeness or presence changed
// as of now is marked pending for the next Refresh.
func (t *Table) Merge(snap []Entry, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range snap {
		in := &snap[i]
		e, ok := t.entries[in.Info.JobID]
		changed := !ok
		if !ok {
			cp := in.clone()
			t.entries[in.Info.JobID] = &cp
		} else {
			if in.Last > e.Last {
				wasStale := now-e.Last > t.timeout
				e.Last = in.Last
				changed = wasStale && now-e.Last <= t.timeout
			}
			for s := range in.Servers {
				if !e.Servers[s] {
					e.Servers[s] = true
					changed = true
				}
			}
			if in.Demand > e.Demand {
				e.Demand = in.Demand
			}
		}
		if changed {
			t.notePendingLocked(in.Info.JobID, now)
		}
	}
}

// DropServer removes a server from every entry's observed-server set —
// the failover path: when the cluster fabric declares a member failed,
// each job that was present on it sheds that presence, so the 1/k token
// deweighting (Figure 5) shifts the job's share onto the survivors once
// the next Refresh folds the change in.
func (t *Table) DropServer(server string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.entries {
		if e.Servers[server] {
			delete(e.Servers, server)
			t.pending[id] = struct{}{}
			t.dirty.Store(true)
		}
	}
}

// AllGather performs the λ-interval synchronization across a set of
// tables: every table merges every other table's snapshot. After the call
// all tables agree on the global active job set and per-job presence.
func AllGather(tables []*Table, now time.Duration) {
	snaps := make([][]Entry, len(tables))
	for i, t := range tables {
		snaps[i] = t.Snapshot()
	}
	for i, t := range tables {
		for j, snap := range snaps {
			if i == j {
				continue
			}
			t.Merge(snap, now)
		}
	}
}
