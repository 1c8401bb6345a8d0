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
// keep serving), copies the sealed bytes, installs each new local
// stripe into a pending buffer on its target server, then commits —
// atomically replacing the live entry under the new layout — and drops
// the stale stripes, generation-checked so a concurrent unlink or
// recreate of the path is never clobbered. Dropped paths leave a moved
// marker so clients still holding the old layout get ErrStaleLayout
// (re-stat and retry) instead of ErrNotExist.

// pendingInstall accumulates a migrating-in stripe before its commit.
// The buffer is invisible to every read path until MigrateCommit, so a
// client can never observe a half-copied stripe. at is the last
// install's arrival, for the sweep: a coordinator that dies between
// install and commit/abort would otherwise strand the buffer forever.
type pendingInstall struct {
	buf []byte
	at  time.Time
}

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
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return 0, 0, ErrStaleLayout
		}
		return 0, 0, ErrNotExist
	}
	if n.isDir {
		return 0, 0, ErrIsDir
	}
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

// Unseal lifts a seal (the abort path of a failed migration). Missing
// entries are a no-op: the path may have been unlinked while sealed.
func (s *Shard) Unseal(p string) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.nodes[p]; ok {
		n.sealed = false
	}
}

// UnsealTrim lifts a seal after truncating the local stripe to keep
// bytes — the abort path of a migration whose seal phase raced a
// striped write: a chunk that landed on a not-yet-sealed holder while
// an already-sealed one refused was never acknowledged, and on an
// append-structured stripe it would misplace every later append. The
// coordinator computes keep as this stripe's share of the consistent
// round-robin prefix; acknowledged bytes are always inside it. A trim
// tombstones this server's staged object and re-marks the entry fully
// dirty, so the backing store restages the trimmed content instead of
// resurrecting the tail.
func (s *Shard) UnsealTrim(p string, keep int64) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[p]
	if !ok {
		return nil
	}
	if n.isDir || keep < 0 || n.index.Size() <= keep {
		n.sealed = false
		return nil
	}
	// On any failure the seal stays: lifting it with the torn tail in
	// place would let appends land misplaced — the exact corruption
	// this trim exists to prevent. The caller's pass stays dirty and
	// retries.
	prefix := make([]byte, keep)
	got := 0
	for _, sl := range n.index.Resolve(0, keep) {
		m, err := s.store.ReadAt(sl.Ext, sl.Off, prefix[got:got+int(sl.Len)])
		got += m
		if err != nil {
			return err
		}
	}
	var ext storage.Extent
	if got > 0 {
		var err error
		ext, err = s.store.Alloc(int64(got))
		if err != nil {
			return err
		}
		if _, err := s.store.WriteAt(ext, 0, prefix[:got]); err != nil {
			_ = s.store.Release(ext)
			return err
		}
	}
	// The replacement is staged; from here the swap must complete —
	// continue past a release error (allocator inconsistency; the
	// extents are merely leaked) rather than abort.
	_ = s.store.ReleaseAll(n.index.Extents())
	n.index = storage.NewIndex()
	n.dirty = storage.NewRangeSet()
	if got > 0 {
		n.index.Append(ext)
		n.dirty.Mark(0, int64(got))
	}
	n.metaDirty = true
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeOf(n)})
	n.sealed = false
	return nil
}

// MigrateInstall appends a chunk of p's new local stripe to the pending
// (not yet visible) migration buffer. Chunks must arrive in order —
// off is the write position already accumulated — so a lost or
// duplicated frame surfaces as an error instead of a torn stripe.
func (s *Shard) MigrateInstall(p string, off int64, data []byte) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	pi := s.pending[p]
	if pi == nil {
		if off != 0 {
			return ErrBadOffset
		}
		pi = &pendingInstall{}
		s.pending[p] = pi
	}
	if off != int64(len(pi.buf)) {
		return ErrBadOffset
	}
	pi.buf = append(pi.buf, data...)
	pi.at = time.Now()
	return nil
}

// MigrateAbort discards p's pending migration buffer.
func (s *Shard) MigrateAbort(p string) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, p)
}

// MigrateCommit atomically makes p's pending buffer the live local
// stripe under the new layout, replacing any existing entry (this
// server may have held a stripe under the old layout too). The whole
// swap happens under one critical section, so no concurrent read can
// observe the path as missing mid-commit. The committed entry is fully
// dirty — its bytes must restage to the backing store under the new
// layout — and carries the coordinator's layout generation, so
// old-layout reads and writes are detectably stale.
//
// The commit is idempotent by that generation: a retried commit whose
// first delivery executed (the reply was lost) finds the entry already
// at layoutGen and succeeds without touching it. A commit with neither
// a pending buffer nor a matching entry is refused — installing an
// empty stripe on a bare retry would destroy the bytes the first
// delivery landed. (Files shorter than the stripe set still commit
// empty trailing stripes: the install phase always sends at least one
// chunk, so a pending buffer exists even for zero bytes.)
func (s *Shard) MigrateCommit(p string, stripes int, unit int64, set []string, layoutGen uint64) error {
	p = clean(p)
	s.mu.Lock()
	old, hadOld := s.nodes[p]
	if hadOld {
		if old.isDir {
			s.mu.Unlock()
			return ErrIsDir
		}
		// Duplicate delivery: the first commit landed (it consumed the
		// pending buffer) and only the reply was lost. The absence of a
		// pending buffer is part of the test — an aborted earlier
		// attempt can reuse the same generation on its next try, and
		// that retry arrives with freshly installed pending content
		// that must replace, not be discarded as a duplicate.
		if old.layoutGen == layoutGen && slices.Equal(old.set, set) && s.pending[p] == nil {
			s.mu.Unlock()
			return nil
		}
	}
	pi := s.pending[p]
	if pi == nil {
		s.mu.Unlock()
		return fmt.Errorf("fsys: migrate commit %s: no pending install", p)
	}
	delete(s.pending, p)
	// Stage the new extent before touching the old entry, so an
	// allocation failure leaves the previous state fully intact.
	var ext storage.Extent
	if len(pi.buf) > 0 {
		var err error
		ext, err = s.store.Alloc(int64(len(pi.buf)))
		if err != nil {
			s.pending[p] = pi
			s.mu.Unlock()
			return err
		}
		if _, err := s.store.WriteAt(ext, 0, pi.buf); err != nil {
			_ = s.store.Release(ext)
			s.pending[p] = pi
			s.mu.Unlock()
			return err
		}
	}
	if hadOld {
		if err := s.store.ReleaseAll(old.index.Extents()); err != nil {
			// Keep the commit retryable: restore the pending buffer and
			// free the staged extent. (ReleaseAll fails only on allocator
			// inconsistency, and then releases nothing.)
			if len(pi.buf) > 0 {
				_ = s.store.Release(ext)
			}
			s.pending[p] = pi
			s.mu.Unlock()
			return err
		}
		delete(s.nodes, p)
		// Tombstone the replaced entry's own staged object: the stripe
		// index (and content) changed, so the old row would otherwise
		// squat in the backing store — and a stale row sharing a (path,
		// stripe) key with a new owner's row could mislead a later
		// failover reassembly. The committed entry is fully dirty, so
		// the same drain pump that processes the delete restages the
		// fresh bytes (the unlink-then-recreate precedent).
		s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeOf(old)})
	}
	s.genCtr++
	delete(s.moved, p)
	n := &node{
		stripes: stripes, unit: unit, set: set,
		gen: s.genCtr, layoutGen: layoutGen, metaDirty: true,
		index: storage.NewIndex(), dirty: storage.NewRangeSet(),
	}
	if len(pi.buf) > 0 {
		off := n.index.Append(ext)
		n.dirty.Mark(off, ext.Len)
	}
	s.nodes[p] = n
	s.mu.Unlock()
	s.ensureParents(p)
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
// drain engine propagates it), and leaves a moved marker. The drop is
// generation-checked: if the entry's creation generation no longer
// matches gen, the path was unlinked or recreated while the migration
// ran and the drop is a no-op — the new incarnation owns the name.
// Reports whether the stripe was dropped.
func (s *Shard) MigrateDrop(p string, gen uint64) bool {
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
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeOf(n)})
	s.moved[p] = time.Now()
	return true
}

// Moved reports whether p's local stripe was migrated away (and not
// since recreated here).
func (s *Shard) Moved(p string) bool {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, mv := s.moved[p]
	return mv
}

// SweepMoved drops moved markers older than retention, and pending
// install buffers whose coordinator has gone silent for as long (a
// live migration refreshes the buffer's timestamp on every chunk, and
// commits or aborts it within a round trip of the last one — a buffer
// idle for the whole retention belongs to a coordinator that died
// mid-migration and would otherwise strand a stripe of memory
// forever). Markers only matter while stale-layout clients are still
// retrying (seconds); the controller sweeps with a retention orders of
// magnitude above every client retry window, bounding both maps
// regardless of how many files ever migrated.
func (s *Shard) SweepMoved(retention time.Duration) {
	cutoff := time.Now().Add(-retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, t := range s.moved {
		if t.Before(cutoff) {
			delete(s.moved, p)
		}
	}
	for p, pi := range s.pending {
		if !pi.at.IsZero() && pi.at.Before(cutoff) {
			delete(s.pending, p)
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
