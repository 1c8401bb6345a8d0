package fsys

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"themisio/internal/storage"
)

// Migration support: the shard-side surface of join-time stripe
// rebalancing. A migration coordinator (the file's recorded set[0]
// server, see internal/server) moves a file to its new ring placement
// in two phases: it seals every current stripe (write-freeze, reads
// keep serving) and streams each stripe that changes holder into a
// pending entry on its new holder, then commits — making each new local
// stripe live under the new layout — and drops the stale stripes,
// generation-checked so a concurrent unlink or recreate of the path is
// never clobbered. Dropped paths leave a moved marker so clients still
// holding the old layout get ErrStaleLayout instead of ErrNotExist, and
// a stat learns the new layout from it.
//
// A pending entry is a file node kept beside the namespace, in
// Shard.pending: its bytes live in store extents like any stripe's, but
// no client operation — write, read, stat, readdir or unlink — can reach
// it until the commit swaps it in.

// Seal write-freezes the local stripe of p and reports its frozen local
// size and creation generation. Idempotent; reads keep working. Sealing
// a directory is an error (directories are replicated, not striped, and
// never migrate). A non-zero expectLayoutGen must match the entry's
// layout generation: a coordinator resuming after an interrupted
// cutover uses it to tell holders still on the old layout from holders
// that already committed the new one — sealing and copying a
// mixed-generation holder under the wrong stripe index would corrupt
// the reassembly.
func (s *Shard) Seal(p string, expectLayoutGen uint64) (size int64, gen uint64, err error) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file(p, 0)
	if err != nil {
		return 0, 0, err
	}
	// Stricter than file's check: a legacy entry (generation zero) is not
	// the committed holder a non-zero expectation looks for.
	if expectLayoutGen != 0 && n.layoutGen != expectLayoutGen {
		return 0, 0, ErrStaleLayout
	}
	if !n.sealed {
		n.sealedAt = time.Now()
	}
	n.sealed = true
	// Parked positional-append chunks can never drain behind a seal (the
	// freeze fails the predecessor that would close their gap), and the
	// migration copies only the frozen landed size — drop them; the
	// client's stale-layout repair re-sends the tail under the new
	// layout.
	n.parked = nil
	n.parkedBytes = 0
	return n.index.Size(), n.gen, nil
}

// Unseal lifts a seal — the abort path of a failed migration — after
// trimming the local stripe to keep bytes, unless keep is negative. The
// trim removes the torn tail of a striped write that raced the seal
// phase: a chunk that landed on a not-yet-sealed holder while an
// already-sealed one refused was never acknowledged, and on an
// append-structured stripe it would misplace every later append. The
// coordinator computes keep as this stripe's share of the consistent
// round-robin prefix; acknowledged bytes are always inside it. An entry
// no longer at layoutGen (0 skips the check) is left alone: a commit of
// the same migration already made it live under the new layout, and
// client bytes may have landed past keep since. Missing entries are a
// no-op too: the path may have been unlinked while sealed.
func (s *Shard) Unseal(p string, keep int64, layoutGen uint64) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, err := s.file(p, layoutGen); err == nil {
		s.trimLocked(p, n, keep)
		n.sealed = false
	}
}

// trimLocked cuts file node n at p to keep bytes, releasing the tail's
// extents; a negative keep, or a stripe no longer than keep, cuts
// nothing. A trim tombstones this server's staged object and re-marks
// the entry fully dirty, so the backing store restages the trimmed
// content instead of resurrecting the tail. Caller holds s.mu.
func (s *Shard) trimLocked(p string, n *node, keep int64) {
	cut := n.index.Truncate(keep)
	if len(cut) == 0 {
		return
	}
	// Releasing extents the index allocated cannot fail; if the allocator
	// were inconsistent the tail would only leak capacity.
	_ = s.store.ReleaseAll(cut)
	n.dirty = storage.NewRangeSet()
	n.dirty.Mark(0, keep)
	n.metaDirty = true
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeIndex(n)})
}

// Install lands one chunk of a migrating-in stripe at offset off of p's
// pending entry for layout generation layoutGen, by AppendAt's rules:
// chunks may arrive out of order, a duplicate acks again, and a placed
// extent is adopted only when its bytes land (see AppendGen). The first
// chunk for a generation creates the entry, discarding one left behind
// for another. Returns the size the entry has (or will have, for a
// parked chunk) once every acked byte lands.
func (s *Shard) Install(p string, off int64, data []byte, placed *storage.Extent, layoutGen uint64) (int64, error) {
	p = clean(p)
	if off < 0 {
		return 0, ErrBadOffset
	}
	for {
		s.mu.RLock()
		if n := s.pending[p]; n != nil && n.layoutGen == layoutGen {
			defer s.mu.RUnlock()
			n.touched.Store(time.Now().UnixNano())
			return s.appendAt(n, off, data, placed)
		}
		s.mu.RUnlock()
		s.mu.Lock()
		if n := s.pending[p]; n == nil || n.layoutGen != layoutGen {
			s.abortLocked(p)
			s.pending[p] = &node{layoutGen: layoutGen, index: storage.NewIndex(), dirty: storage.NewRangeSet()}
		}
		s.mu.Unlock()
	}
}

// MigrateAbort discards p's pending entry and releases its extents.
func (s *Shard) MigrateAbort(p string) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.abortLocked(p)
}

// abortLocked is MigrateAbort. Caller holds s.mu.
func (s *Shard) abortLocked(p string) {
	if n := s.pending[p]; n != nil {
		_ = s.store.ReleaseAll(n.index.Extents())
		delete(s.pending, p)
	}
}

// MigrateCommit makes p's new local stripe live under the layout fi
// records (Stripes, StripeUnit, StripeSet, LayoutGen), in one critical
// section that copies no byte, so no concurrent request can observe the
// path missing or half-committed. fi.Size is the stripe's length in the
// migrated content, and gen says where its bytes are:
//
//   - gen == 0: streamed into p's pending entry, which must hold exactly
//     fi.Size bytes (a zero-length stripe needs none). It replaces any
//     live entry — this server may have held another stripe of the old
//     layout, whose staged object is tombstoned — and it is fully dirty,
//     so it restages under the new layout.
//   - gen != 0: already here. This server keeps the stripe index it
//     held, in the entry of creation generation gen, which is trimmed to
//     fi.Size (as Unseal trims), re-labelled and unsealed.
//
// The commit is idempotent: a retried commit whose first delivery landed
// (only the reply was lost) finds the entry already at the new layout
// with no pending entry beside it, and only unseals it.
func (s *Shard) MigrateCommit(fi FileInfo, gen uint64) error {
	p := clean(fi.Path)
	s.mu.Lock()
	err := s.commitLocked(p, fi, gen)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.ensureParents(p)
	return nil
}

// commitLocked is MigrateCommit's critical section. Caller holds s.mu.
func (s *Shard) commitLocked(p string, fi FileInfo, gen uint64) error {
	old, pend := s.nodes[p], s.pending[p]
	switch {
	case old != nil && old.isDir:
		return ErrIsDir
	case old != nil && old.layoutGen == fi.LayoutGen && slices.Equal(old.set, fi.StripeSet) && pend == nil:
		// A duplicate. With a pending entry beside it, the commit is the
		// retry of an aborted attempt at the same generation, whose
		// freshly streamed stripe must replace the entry.
		old.sealed = false
		return nil
	case gen != 0:
		if old == nil || old.gen != gen {
			return fmt.Errorf("fsys: migrate commit %s: no local stripe of generation %d", p, gen)
		}
		s.abortLocked(p) // a kept stripe needs no pending entry; one here is left from an aborted attempt
		s.trimLocked(p, old, fi.Size)
		old.stripes, old.unit, old.set, old.layoutGen = fi.Stripes, fi.StripeUnit, fi.StripeSet, fi.LayoutGen
		old.metaDirty, old.sealed = true, false
		return nil
	case pend == nil && fi.Size == 0:
		pend = &node{layoutGen: fi.LayoutGen, index: storage.NewIndex(), dirty: storage.NewRangeSet()}
	case pend == nil || pend.layoutGen != fi.LayoutGen || pend.index.Size() != fi.Size || len(pend.parked) > 0:
		return fmt.Errorf("fsys: migrate commit %s: no pending %d-byte stripe at layout generation %d", p, fi.Size, fi.LayoutGen)
	}
	if old != nil {
		if err := s.store.ReleaseAll(old.index.Extents()); err != nil {
			return err // allocator inconsistency; nothing changed, so the commit stays retryable
		}
		// The stripe index (and content) changed, so the old row would
		// otherwise squat in the backing store — and a stale row sharing a
		// (path, stripe) key with a new owner's row could mislead a later
		// failover copy.
		s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeIndex(old)})
	}
	delete(s.pending, p)
	delete(s.moved, p)
	s.genCtr++
	pend.gen, pend.stripes, pend.unit, pend.set, pend.metaDirty = s.genCtr, fi.Stripes, fi.StripeUnit, fi.StripeSet, true
	s.nodes[p] = pend
	return nil
}

// ensureParents records p's ancestor directories on this shard and
// links each child. A migration target that joined the fabric after
// the directories were made has never seen their mkdir broadcasts;
// without the chain, namespace operations that consult this server for
// the moved file — readdir merges, unlink's parent update — would
// answer not-exist. Created directories are metaDirty, so they stage
// like any mkdir.
func (s *Shard) ensureParents(p string) {
	for p != "/" {
		parent, name := split(p)
		if err := s.AddChild(parent, name); err == nil {
			// The parent exists, so its own ancestry is already in place
			// (mkdir replication or an earlier walk of this loop).
			return
		}
		_ = s.CreateEntry(parent, true, 0, 0, nil)
		_ = s.AddChild(parent, name)
		p = parent
	}
}

// MigrateDrop removes p's now-stale local stripe after a cutover,
// records an unlink tombstone for this server's staged object (the
// drain engine propagates it), and leaves a moved marker naming to, the
// committed layout (Stripes, StripeUnit, StripeSet, LayoutGen) the
// stripe was dropped for. The drop is generation-checked: if the entry's
// creation generation no longer matches gen, the path was unlinked or
// recreated while the migration ran and the drop is a no-op — the new
// incarnation owns the name. Reports whether the stripe was dropped.
func (s *Shard) MigrateDrop(p string, gen uint64, to FileInfo) bool {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[p]
	if !ok || n.isDir || n.gen != gen {
		return false
	}
	// Complete the drop even if the release fails (allocator
	// inconsistency — cannot happen for index-owned extents): aborting
	// would leave a zombie entry no pass ever revisits. Leaked extents
	// only cost capacity.
	_ = s.store.ReleaseAll(n.index.Extents())
	delete(s.nodes, p)
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeIndex(n)})
	to.Path = p
	s.moved[p] = movedTo{at: time.Now(), to: to}
	return true
}

// SweepMoved drops moved markers older than retention, and releases
// pending entries no chunk has reached for as long (a live migration
// lands a chunk every round trip and commits or aborts within one of the
// last, so an entry idle for the whole retention belongs to a
// coordinator that died mid-stream and would otherwise strand a stripe
// of store capacity forever). A marker forwards the clients still
// holding the old layout, and those whose ring still names this server
// as the path's owner, to the new one; the controller sweeps with a
// retention orders of magnitude above every client retry window and
// membership refresh, bounding both maps regardless of how many files
// ever migrated.
func (s *Shard) SweepMoved(retention time.Duration) {
	cutoff := time.Now().Add(-retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, m := range s.moved {
		if m.at.Before(cutoff) {
			delete(s.moved, p)
		}
	}
	for p, n := range s.pending {
		if n.touched.Load() < cutoff.UnixNano() {
			s.abortLocked(p)
		}
	}
}

// LocalLen returns how many bytes of a total-byte file laid
// round-robin in unit-sized chunks over nStripes servers land on
// stripe i — the closed form of the layout walk. It lives here, with
// the rest of the layout logic, as the single copy the migration
// planner and the client's write-repair path both lean on
// (property-tested against a brute-force walk in the client package).
func LocalLen(total int64, i, nStripes int, unit int64) int64 {
	cycle := unit * int64(nStripes)
	n := (total / cycle) * unit
	rem := total%cycle - int64(i)*unit
	if rem > unit {
		rem = unit
	}
	if rem > 0 {
		n += rem
	}
	return n
}

// FileOff returns the file offset of byte off of stripe i in a
// round-robin layout of w stripes and unit-sized chunks; StripeOf is its
// inverse. Together with LocalLen they are the one copy of the layout
// map: stage-in scatters staged stripes through FileOff, and a migration
// that narrows a file gathers each new stripe through both.
func FileOff(off int64, i, w int, unit int64) int64 {
	return (off/unit*int64(w)+int64(i))*unit + off%unit
}

// StripeOf returns the stripe holding file offset g in a round-robin
// layout of w stripes and the offset within it.
func StripeOf(g int64, w int, unit int64) (i int, off int64) {
	u := g / unit
	return int(u % int64(w)), u/int64(w)*unit + g%unit
}

// ConsistentTotal returns the longest global length every stripe of a
// round-robin layout can jointly cover — the interleave of the local
// sizes alone, stopping at the first stripe that cannot contribute its
// expected unit (exactly as content reassembly does). Bytes beyond it
// on any one stripe are torn: a striped write that was refused by a
// migration seal on one holder after landing on another. Stats report
// this length so a client's surviving-prefix arithmetic can never
// count torn bytes, and migration trims to it.
func ConsistentTotal(sizes []int64, unit int64) int64 {
	n := len(sizes)
	if n == 1 {
		return sizes[0]
	}
	if unit <= 0 {
		unit = DefaultStripeUnit
	}
	consumed := make([]int64, n)
	var t int64
	for u := int64(0); ; u++ {
		i := int(u % int64(n))
		avail := sizes[i] - consumed[i]
		if avail <= 0 {
			return t
		}
		take := unit
		if take > avail {
			take = avail
		}
		t += take
		consumed[i] += take
		if take < unit {
			return t
		}
	}
}

// FileLayouts returns a snapshot of every file entry's path and
// recorded layout, sorted by path — the rebalance planner's scan.
// Size is the local stripe size (the planner only uses it for
// progress accounting; the sealed sizes are authoritative).
func (s *Shard) FileLayouts() []FileInfo {
	s.mu.RLock()
	out := make([]FileInfo, 0, len(s.nodes))
	for p, n := range s.nodes {
		if n.isDir {
			continue
		}
		out = append(out, FileInfo{
			Path: p, Size: n.index.Size(),
			Stripes: n.stripes, StripeUnit: n.unit,
			StripeSet: append([]string(nil), n.set...),
			LayoutGen: n.layoutGen,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LongSealed returns the paths of file entries that have been sealed
// continuously for longer than olderThan — zombie suspects whose
// migration coordinator may have died between cutover and the drop
// delivery (the owed-drops queue is coordinator memory, so a crash
// loses it). The zombie sweep consults each path's current ring owner
// before retiring anything.
func (s *Shard) LongSealed(olderThan time.Duration) []string {
	cutoff := time.Now().Add(-olderThan)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for p, n := range s.nodes {
		if !n.isDir && n.sealed && n.sealedAt.Before(cutoff) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
