package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/backing"
	"themisio/internal/cluster"
	"themisio/internal/fsys"
	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// Stripe migration: the one way a file's layout changes. The migrator
// moves a file whose recorded stripe set differs from the ring's
// placement, ring.LookupN(path, width), onto that placement. Two events
// make them differ: a member joins, and the ring ranks it above a recorded
// holder; or a member fails or leaves, and the ring no longer holds it.
// Either way the file keeps its recorded width, unless fewer servers
// remain than the width: then it narrows to all of them.
//
// The coordinator is the first living member of the recorded set (alive,
// or draining and still serving). It holds the entry, so its own shard
// scan finds the file. A file no living member holds has no such entry:
// the path's ring owner finds it in the backing store's rows, in the one
// manifest scan a pass makes while a dead member is not yet reconciled.
// The move has two phases:
//
//  1. Seal every living holder (write-freeze; reads keep serving) and
//     stream each new stripe whose holder changes into a pending entry on
//     its new holder, through the stripe pipeline, one segment at a time.
//     A living holder's stripe is read live, falling back to its staged
//     object if it stops answering; a dead holder's stripe is read from
//     its staged object alone and sized by that object's row.
//  2. Commit the new layout on every new holder under a bumped layout
//     generation — the pending entry swapped in, or a stripe whose holder
//     and index both survive re-labelled in place — and drop the living
//     holders' stale stripes, generation-checked so a concurrent unlink or
//     recreate is never clobbered. Dropped stripes leave moved markers and
//     tombstone their staged objects; committed stripes are dirty, so the
//     drain engine stages the new layout. A dead holder's object is
//     deleted only once the stripes that replaced it are staged.
//
// Without a backing store a dead holder's stripe is gone, and moving the
// file would truncate acknowledged bytes: such a file stays where it is.
//
// All peer traffic (seals, stripe reads, installs, commits, drops)
// carries the synthetic rebalance job (policy.RebalanceJob), and data
// messages go through each receiving server's token scheduler — the
// compiled sharing policy arbitrates migration bandwidth against
// foreground I/O exactly as it does stage-out drain traffic. Peers are
// reached through a transport.Peers set (one cached connection each);
// every reply is released after its last touch.

// migChunk is the migration transfer granularity: the same 1 MiB grain
// as foreground striped writes and drain chunks, so the policy
// interleaves all three equally. migSegment is what the coordinator
// holds of a stripe at once: a segment is read into one buffer and
// written out again, migChunk per install.
const (
	migChunk   = 1 << 20
	migSegment = 4 * migChunk
)

// Migrator plans and executes stripe migrations for one server.
type Migrator struct {
	self  string
	shard *fsys.Shard
	node  *cluster.Node
	store backing.Store // nil without stage-out durability
	job   policy.JobInfo
	log   *slog.Logger

	// failoverOnly plans only files with a dead holder: join-time moves
	// are off (Config.RebalanceDisabled), failover is not.
	failoverOnly bool

	// running admits one pass at a time (the controller ticks every λ;
	// a tick that finds a pass in flight changes nothing). planned is
	// the ring epoch the shard was last fully reconciled against: the
	// pass is a no-op until the epoch moves again or a previous pass
	// left errors behind. reconciled names the dead members (deadKey)
	// the last settled pass moved every file off; only a pass that finds
	// one it has not reads the backing store's manifest. It is touched by
	// the pass alone.
	running    atomic.Bool
	planned    atomic.Uint64
	dirty      atomic.Bool // a pass failed; retry even at the same epoch
	reconciled string

	// peers reaches the other holders: one cached connection each.
	peers *transport.Peers

	// Progress counters for themisctl rebalance status.
	files   atomic.Int64
	bytes   atomic.Int64
	errs    atomic.Int64
	pending atomic.Int64

	mu        sync.Mutex
	lastErr   error
	lastSweep time.Time
	// drops are stale-stripe retirements whose delivery failed after a
	// cutover already committed. The cutover is correct without them —
	// moved markers and tombstones are per-holder hygiene — but a
	// dropped drop would leak the sealed zombie entry and its staged
	// object forever (no epoch move revisits it), so they are retried
	// every pass until they land or the generation check voids them.
	drops []pendingDrop
	// deletes are dead holders' staged objects whose file moved: each is
	// the only durable copy of its stripe until the new layout's rows are
	// staged, so it is deleted only then (see retire).
	deletes []pendingDelete
}

type pendingDrop struct {
	addr, path string
	gen        uint64
}

// pendingDelete is the dead holders' objects of one moved file, owed
// deletion once the stripes of set at layout generation gen are staged.
type pendingDelete struct {
	path string
	gen  uint64
	set  []string
	objs []rowKey
}

// rowKey names one staged object.
type rowKey struct {
	owner, path string
	stripe      int
}

// NewMigrator builds a migration coordinator for the shard owned by
// server self. logger receives migration progress (nil discards).
func NewMigrator(self string, shard *fsys.Shard, node *cluster.Node, store backing.Store, logger *slog.Logger) *Migrator {
	if logger == nil {
		logger = obsv.NopLogger()
	}
	return &Migrator{
		self:  self,
		shard: shard,
		node:  node,
		store: store,
		job:   policy.RebalanceJob(self),
		log:   logger,
		// One segment's installs in flight per peer.
		peers: transport.NewPeers(1, migSegment/migChunk, 2*time.Second, 0),
	}
}

// Job returns the synthetic job identity the migrator's peer traffic
// carries.
func (m *Migrator) Job() policy.JobInfo { return m.job }

// Stats reports lifetime migration counters and the pending candidate
// count of the current pass.
func (m *Migrator) Stats() (files, bytes, errs, pending int64) {
	return m.files.Load(), m.bytes.Load(), m.errs.Load(), m.pending.Load()
}

// Epoch returns the ring epoch the shard was last fully reconciled
// against.
func (m *Migrator) Epoch() uint64 { return m.planned.Load() }

// Settled reports whether the migrator has fully reconciled the given
// ring epoch: no pass in flight, no re-plan owed, nothing pending.
func (m *Migrator) Settled(epoch uint64) bool {
	return m.planned.Load() == epoch && !m.dirty.Load() &&
		!m.running.Load() && m.pending.Load() == 0
}

// LastErr returns the most recent migration error (nil if none).
func (m *Migrator) LastErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// Close tears down cached peer connections and refuses new dials — an
// in-flight pass errors out at its next round trip instead of opening
// (and leaking) fresh sockets after shutdown.
func (m *Migrator) Close() { m.peers.Close() }

func (m *Migrator) fail(err error) {
	m.errs.Add(1)
	m.mu.Lock()
	m.lastErr = err
	m.mu.Unlock()
}

// Pass runs one plan-and-migrate pass if the ring epoch moved since the
// last fully-reconciled pass (or the last pass left failures behind).
// It returns immediately when there is nothing to do; the caller runs
// it off the controller's λ loop.
func (m *Migrator) Pass() {
	mem := m.node.Membership()
	epoch := mem.Epoch()
	if epoch == m.planned.Load() && !m.dirty.Load() {
		return
	}
	m.dirty.Store(false)
	m.retryDrops()
	dead := deadKey(mem)
	m.mu.Lock()
	owed := len(m.deletes)
	m.mu.Unlock()
	var rows map[rowKey]backing.FileMeta
	if m.store != nil && ((dead != "" && dead != m.reconciled) || owed > 0) {
		var err error
		if rows, err = loadRows(m.store); err != nil {
			m.fail(fmt.Errorf("rebalance: reading the backing manifest: %w", err))
			m.dirty.Store(true)
			return
		}
		m.retire(mem, rows)
	}
	plan, skipped := m.plan(mem, rows)
	m.pending.Store(int64(len(plan)))
	ok := true
	for _, fi := range plan {
		if err := m.migrateFile(mem, fi, rows); err != nil {
			m.fail(fmt.Errorf("rebalance %s: %w", fi.Path, err))
			ok = false
		}
		m.pending.Add(-1)
	}
	m.pending.Store(0)
	m.mu.Lock()
	owing := len(m.drops) + len(m.deletes)
	m.mu.Unlock()
	// Advance the reconciled epoch only if every candidate settled, no
	// candidate was skipped for a transiently non-alive member (a
	// suspect recovering to alive moves no epoch, so only the dirty
	// flag would ever revisit it), no stale-stripe drop or dead object's
	// delete is still owed, and the ring did not move mid-pass; otherwise
	// the next λ tick replans.
	if ok && skipped == 0 && owing == 0 && mem.Epoch() == epoch {
		m.planned.Store(epoch)
		m.reconciled = dead
	} else if !ok || skipped > 0 || owing > 0 {
		m.dirty.Store(true)
	}
}

// deadKey names the members the fabric gave up on — failed or left —
// each with the incarnation it died at, so a member that rejoins and
// fails again is news. Empty when every member is living.
func deadKey(mem *cluster.Membership) string {
	var b strings.Builder
	for _, e := range mem.Snapshot() {
		if gone(e.State) {
			fmt.Fprintf(&b, "%s@%d ", e.Addr, e.Incarnation)
		}
	}
	return b.String()
}

// gone reports whether a member in state st is dead to the fabric: its
// stripes are read from their staged objects, and it is never dialed.
func gone(st cluster.State) bool { return st == cluster.StateFailed || st == cluster.StateLeft }

// loadRows indexes the backing store's file rows by identity — the one
// manifest scan a pass makes, shared by the sizing of dead holders'
// stripes, the search for files no living member holds, and the owed
// deletes.
func loadRows(store backing.Store) (map[rowKey]backing.FileMeta, error) {
	manifest, err := store.Manifest()
	if err != nil {
		return nil, err
	}
	rows := make(map[rowKey]backing.FileMeta, len(manifest))
	for _, r := range manifest {
		if !r.IsDir {
			rows[rowKey{r.Owner, r.Path, r.Stripe}] = r
		}
	}
	return rows, nil
}

// retire deletes the dead holders' objects of moved files whose new
// stripes are all accounted for: staged at the new layout's generation,
// held by a member that died since (its own failover reads its row), or
// no longer held at that generation (unlinked, or moved on). Until then a
// dead object is the only durable copy of its stripe — new objects
// first, stale deletes after — so it stays owed, and so does one whose
// delete failed.
func (m *Migrator) retire(mem *cluster.Membership, rows map[rowKey]backing.FileMeta) {
	m.mu.Lock()
	owed := m.deletes
	m.deletes = nil
	m.mu.Unlock()
	var keep []pendingDelete
	for _, d := range owed {
		if !m.replaced(mem, d, rows) {
			keep = append(keep, d)
			continue
		}
		for i, k := range d.objs {
			if err := m.store.DeleteObject(k.owner, k.path, k.stripe); err != nil {
				m.fail(fmt.Errorf("rebalance %s: deleting %s's stripe %d (will retry): %w", k.path, k.owner, k.stripe, err))
				d.objs = d.objs[i:]
				keep = append(keep, d)
				break
			}
		}
	}
	m.mu.Lock()
	m.deletes = append(m.deletes, keep...)
	m.mu.Unlock()
}

// replaced reports whether every stripe of d's layout is accounted for
// (see retire). A holder that cannot be asked holds the delete back.
func (m *Migrator) replaced(mem *cluster.Membership, d pendingDelete, rows map[rowKey]backing.FileMeta) bool {
	for j, addr := range d.set {
		if r, ok := rows[rowKey{addr, d.path, j}]; ok && r.LayoutGen >= d.gen {
			continue
		}
		if e, _ := mem.Lookup(addr); gone(e.State) {
			continue
		}
		resp, err := m.call(addr, &transport.Request{Type: transport.MsgStat, Path: d.path})
		if err != nil {
			if isGone(err) {
				continue
			}
			return false
		}
		held := resp.LayoutGen == d.gen
		resp.Release()
		if held {
			return false
		}
	}
	return true
}

// retryDrops re-delivers stale-stripe retirements left over from
// earlier cutovers; still-failing ones requeue.
func (m *Migrator) retryDrops() {
	m.mu.Lock()
	drops := m.drops
	m.drops = nil
	m.mu.Unlock()
	for _, d := range drops {
		if err := m.dropOn(d.addr, d.path, d.gen); err != nil {
			m.mu.Lock()
			m.drops = append(m.drops, d)
			m.mu.Unlock()
		}
	}
}

// MarkDirty forces the next pass to re-plan even at an unchanged ring
// epoch. A committed migration calls it on the receiving server: the
// commit may have made this server the new coordinator (set[0]) of a
// layout the grown ring wants moved again, and no epoch move would
// announce that.
func (m *Migrator) MarkDirty() { m.dirty.Store(true) }

// zombieAge is how long an entry must stay sealed before the zombie
// sweep considers its coordinator dead, and zombieSweepEvery paces the
// sweep itself. Both sit far above any live migration's seal window.
const (
	zombieAge        = 2 * time.Minute
	zombieSweepEvery = time.Minute
)

// ZombieSweep retires long-sealed local stripes whose migration
// completed elsewhere — the owed-drops queue is coordinator memory, so
// a coordinator crash between cutover and drop delivery would
// otherwise leak the sealed entry and its staged object forever, with
// no epoch move to revisit it. The proof of completion is read from
// the path's current ring owner: a committed layout at a newer
// generation that excludes this server supersedes the local stripe.
// Anything short of that proof leaves the entry alone.
func (m *Migrator) ZombieSweep() {
	m.mu.Lock()
	if time.Since(m.lastSweep) < zombieSweepEvery {
		m.mu.Unlock()
		return
	}
	m.lastSweep = time.Now()
	m.mu.Unlock()
	// Periodic re-plan backstop: whatever ordering race or lost signal
	// might ever leave a diverged layout behind a settled epoch, the
	// next sweep re-plans and converges it. One FileLayouts scan per
	// sweep interval is noise.
	m.dirty.Store(true)
	for _, p := range m.shard.LongSealed(zombieAge) {
		fi, err := m.shard.Stat(p)
		if err != nil {
			continue
		}
		// The creation generation is captured before the remote round
		// trip: an unlink/recreate landing while the owner's stat queues
		// through its scheduler must void the drop, and a generation
		// read at drop time would trivially match the new incarnation.
		gen := m.shard.GenOf(p)
		owner, ok := m.node.Membership().Ring().Lookup(p)
		if !ok || owner == m.self {
			continue // this server's own plan owns the path's fate
		}
		resp, err := m.call(owner, &transport.Request{Type: transport.MsgStat, Path: p})
		if err != nil {
			continue
		}
		superseded := !resp.IsDir && resp.LayoutGen > fi.LayoutGen && !slices.Contains(resp.StripeSet, m.self)
		resp.Release()
		if superseded && m.shard.MigrateDrop(p, gen) {
			m.log.Info("retired zombie stripe",
				"path", p, "superseded_gen", resp.LayoutGen, "owner", owner)
		}
	}
}

// plan returns the files this server coordinates whose recorded layout
// differs from the ring's placement: files it holds and is the first
// living holder of (an unrecorded legacy layout is coordinated by its
// holder), and, when rows are loaded, files only dead members hold whose
// ring owner it is. A file whose set or target names a suspect or unknown
// member is counted as skipped, not planned — a suspect resolves within a
// few λ, back to alive or on to failed — and so is a file with a dead
// holder when there are no rows to read that holder's stripe from. A
// non-zero skip count keeps the pass from settling.
func (m *Migrator) plan(mem *cluster.Membership, rows map[rowKey]backing.FileMeta) ([]fsys.FileInfo, int) {
	ring := mem.Ring()
	var out []fsys.FileInfo
	skipped := 0
	consider := func(fi fsys.FileInfo, dead, wait bool) {
		target := ring.LookupN(fi.Path, max(1, fi.Stripes))
		if len(target) == 0 || slices.Equal(fi.StripeSet, target) || (m.failoverOnly && !dead) {
			return
		}
		_, _, twait := classify(mem, target)
		switch {
		case wait || twait:
			skipped++
		case dead && rows == nil:
			// Without a store the dead stripe is lost, and moving the file
			// would truncate acknowledged bytes; with one, the next pass
			// reads the manifest.
			skipped++
			m.reconciled = ""
		default:
			out = append(out, fi)
		}
	}
	for _, fi := range m.shard.FileLayouts() {
		if len(fi.StripeSet) == 0 {
			if fi.Stripes > 1 {
				// A legacy multi-stripe layout with no recorded set: the
				// other holders are underivable (the creating ring is
				// gone), and migrating just the local stripe as if it
				// were the whole file would destroy the rest. Leave it
				// where the hash put it.
				continue
			}
			fi.StripeSet = []string{m.self}
		}
		if coord, dead, wait := classify(mem, fi.StripeSet); coord == m.self {
			consider(fi, dead, wait)
		}
	}
	for _, fi := range stagedLayouts(rows) {
		coord, dead, wait := classify(mem, fi.StripeSet)
		if owner, _ := ring.Lookup(fi.Path); coord == "" && dead && owner == m.self && !m.shard.Exists(fi.Path) {
			consider(fi, dead, wait)
		}
	}
	return out, skipped
}

// classify reads a recorded stripe set against the membership: coord is
// its first living member (alive, or draining and still serving), dead
// says a member failed or left, and wait says a member is suspect or
// unknown.
func classify(mem *cluster.Membership, set []string) (coord string, dead, wait bool) {
	for _, addr := range set {
		e, ok := mem.Lookup(addr)
		switch {
		case !ok || e.State == cluster.StateSuspect:
			wait = true
		case gone(e.State):
			dead = true
		case coord == "":
			coord = addr
		}
	}
	return coord, dead, wait
}

// stagedLayouts returns each staged file's layout as its newest rows
// record it, sorted by path.
func stagedLayouts(rows map[rowKey]backing.FileMeta) []fsys.FileInfo {
	newest := map[string]backing.FileMeta{}
	for _, r := range rows {
		if n, ok := newest[r.Path]; !ok || r.LayoutGen > n.LayoutGen {
			newest[r.Path] = r
		}
	}
	out := make([]fsys.FileInfo, 0, len(newest))
	for _, r := range newest {
		set := r.StripeSet
		if len(set) == 0 && r.Stripes <= 1 {
			set = []string{r.Owner}
		}
		if len(set) > 0 {
			out = append(out, fsys.FileInfo{Path: r.Path, Stripes: len(set), StripeUnit: r.StripeUnit, StripeSet: set, LayoutGen: r.LayoutGen})
		}
	}
	slices.SortFunc(out, func(a, b fsys.FileInfo) int { return strings.Compare(a.Path, b.Path) })
	return out
}

// migrateFile moves one file from its recorded layout to the ring's
// current placement. A nil return means settled: migrated, found
// already gone, or skipped because the path changed under us (the next
// pass re-plans). rows sizes a dead holder's stripe (nil when the set
// holds none).
func (m *Migrator) migrateFile(mem *cluster.Membership, fi fsys.FileInfo, rows map[rowKey]backing.FileMeta) error {
	set := fi.StripeSet
	target := mem.Ring().LookupN(fi.Path, max(1, fi.Stripes))
	if len(target) == 0 || slices.Equal(set, target) {
		return nil
	}
	unit := fi.StripeUnit
	if unit <= 0 {
		unit = fsys.DefaultStripeUnit
	}
	// A narrowed file re-interleaves every byte; otherwise new stripe j is
	// old stripe j byte for byte, and stays in place when its holder does.
	narrow := len(target) != len(set)

	newGen := fi.LayoutGen + 1
	if newGen < 2 {
		newGen = 2 // legacy entries may report generation zero
	}
	// Phase one: seal every living holder, generation-checked against the
	// recorded layout. The seal freezes each local stripe (writes answer
	// stale-layout and the client retries against the new layout after
	// cutover), so the sizes reported here are final and the copy can
	// never miss an acknowledged byte. A dead holder is not dialed: its
	// stripe is its staged object, as long as its row says.
	//
	// A stale answer from a holder means it already carries the NEW
	// layout — this pass is resuming a cutover an earlier pass started
	// but could not finish (a commit executed whose reply was lost).
	// Migration maps new stripe i to old stripe i byte-for-byte, so the
	// committed holder of stripe i — target[i] — serves the same content;
	// seal it under the new generation and read from there instead.
	// Without the generation check, a resumed pass would copy a committed
	// holder's re-indexed stripe under its old index and corrupt the
	// reassembly. A narrowing cutover has no such map and cannot resume.
	seals := sealState{
		srcs:  make([]string, len(set)), // who serves stripe i's frozen bytes
		sizes: make([]int64, len(set)),
		gens:  make([]uint64, len(set)), // old holders' creation gens (for drops)
		held:  make([]bool, len(set)),   // a seal this pass placed
		sub:   make([]bool, len(set)),   // src is the committed target (resume)
		dead:  make([]bool, len(set)),   // the holder is dead: read its staged object
	}
	var sealErr error
	for i, addr := range set {
		if e, _ := mem.Lookup(addr); gone(e.State) {
			seals.dead[i], seals.sizes[i] = true, rows[rowKey{addr, fi.Path, i}].Size
			continue
		}
		size, gen, err := m.sealOn(addr, fi.Path, fi.LayoutGen)
		if err == nil {
			seals.srcs[i], seals.sizes[i], seals.gens[i], seals.held[i] = addr, size, gen, true
			continue
		}
		if staleErr(err) && !narrow {
			if size, _, rerr := m.sealOn(target[i], fi.Path, newGen); rerr == nil {
				seals.srcs[i], seals.sizes[i], seals.held[i], seals.sub[i] = target[i], size, true, true
				continue
			}
		}
		sealErr = err
		break
	}
	release := func() { m.releaseSeals(fi.Path, unit, fi.LayoutGen, newGen, set, seals) }
	if sealErr != nil {
		release()
		if isGone(sealErr) || (staleErr(sealErr) && !narrow) {
			return nil // unlinked, or moved on in a way this pass cannot resume
		}
		return sealErr
	}
	kept := func(j int) bool { return !narrow && seals.srcs[j] == target[j] }

	// The migrated content is the longest round-robin-consistent prefix
	// of the sealed stripes. Anything past it is the torn tail of a
	// write that raced the seal — some chunks landed, an earlier one
	// was refused — which the client was never acked for and re-issues
	// against the new layout after its re-stat; carrying such an orphan
	// unit over verbatim would make the re-stat size include bytes that
	// are not a prefix of the interrupted write, and the client's
	// "surviving prefix" arithmetic would then resume at the wrong
	// offset. A dead holder's stripe counts at its staged size, so bytes
	// it never staged end the file at its first missing unit.
	total := fsys.ConsistentTotal(seals.sizes, unit)
	// Copy: stream every new stripe whose holder changes into its new
	// holder's pending entry. A stripe already on its new holder — the
	// same server at the same index, or a committed target being resumed
	// — is not copied; its commit re-labels it in place.
	src := &source{m: m, path: fi.Path, gen: fi.LayoutGen, unit: unit, addrs: seals.srcs, owners: set, errs: make([]error, len(set))}
	var moved int64
	var buf []byte
	for j, dst := range target {
		size := fsys.LocalLen(total, j, len(target), unit)
		if kept(j) || size == 0 {
			continue
		}
		if int64(len(buf)) < min(size, migSegment) {
			buf = make([]byte, min(size, migSegment))
		}
		if err := m.stream(src, dst, j, len(target), size, newGen, buf); err != nil {
			m.abortAll(target[:j+1], fi.Path)
			release()
			return err
		}
		moved += size
	}

	// Generation guard at the cutover edge: a coordinator that holds the
	// file seeing its local creation generation move means the path was
	// unlinked or recreated while we copied — the new incarnation owns the
	// name, and a commit would resurrect the file on the targets. (The
	// residual window — an unlink landing between this check and the
	// commit deliveries — is one round trip.)
	if selfIdx := slices.Index(set, m.self); selfIdx >= 0 && m.shard.GenOf(fi.Path) != seals.gens[selfIdx] {
		m.abortAll(target, fi.Path)
		release()
		return nil
	}

	// Phase two: commit the new layout everywhere (remote targets first,
	// self last, so an interrupted cutover leaves this coordinator's old
	// layout in place and the next pass resumes), then drop the stale
	// stripes.
	commit := func(j int) error {
		layout := fsys.FileInfo{
			Path: fi.Path, Size: fsys.LocalLen(total, j, len(target), unit),
			Stripes: len(target), StripeUnit: unit, StripeSet: target, LayoutGen: newGen,
		}
		gen := uint64(0)
		if kept(j) {
			gen = seals.gens[j] // kept in place (zero on a resumed target, which is committed already)
		}
		return m.commitOn(target[j], layout, gen)
	}
	order := slices.DeleteFunc(slices.Clone(target), func(addr string) bool { return addr == m.self })
	if len(order) < len(target) {
		order = append(order, m.self)
	}
	for _, addr := range order {
		j := slices.Index(target, addr)
		// Commits are idempotent (layout-generation-checked on the
		// receiver), so transport failures retry in place — the
		// alternative, abandoning a partially committed cutover, leaves
		// a mixed-generation file for the resume path to repair.
		var cerr error
		for attempt := 0; attempt < 3; attempt++ {
			if cerr = commit(j); cerr == nil {
				break
			}
			if staleErr(cerr) || isGone(cerr) {
				break // an application refusal will not change on retry
			}
			time.Sleep(50 * time.Millisecond)
		}
		if cerr != nil {
			// A persistently dying peer: the layouts re-converge through
			// the next pass (this coordinator's entry still records the
			// old set, and the generation-checked seal resumes the
			// partial cutover) or, once the peer is declared failed, through
			// the failover pass that moves the file off it.
			m.abortAll(target, fi.Path)
			release()
			return cerr
		}
	}
	// Cutover done: retire the stale stripes. A failed drop does not
	// fail the file — the cutover is complete — but it is queued for
	// retry on every subsequent pass: nothing else ever revisits the
	// holder (the entry is already off the recorded layout), and an
	// unretired stripe leaks its device extents and staged object.
	var dead []rowKey
	for i, addr := range set {
		if seals.dead[i] {
			dead = append(dead, rowKey{addr, fi.Path, i})
			continue
		}
		if slices.Index(target, addr) >= 0 {
			continue // replaced or re-labelled by its commit
		}
		if err := m.dropOn(addr, fi.Path, seals.gens[i]); err != nil {
			m.fail(fmt.Errorf("rebalance %s: dropping stale stripe on %s (will retry): %w", fi.Path, addr, err))
			m.mu.Lock()
			m.drops = append(m.drops, pendingDrop{addr: addr, path: fi.Path, gen: seals.gens[i]})
			m.mu.Unlock()
			m.dirty.Store(true)
		}
	}
	if len(dead) > 0 {
		m.mu.Lock()
		m.deletes = append(m.deletes, pendingDelete{path: fi.Path, gen: newGen, set: target, objs: dead})
		m.mu.Unlock()
		m.dirty.Store(true)
	}
	m.files.Add(1)
	m.bytes.Add(moved)
	return nil
}

// source reads the old layout's stripes for one migration. Stripe i is
// read from addrs[i], the holder sealed for it, or from owners[i]'s
// staged object: at once when addrs[i] is empty (a dead holder), and for
// the rest of the copy once the holder stops answering (errs[i] keeps why).
// The store is append-structured, so any prefix a holder staged under its
// stripe index is byte-identical to the live stripe. The lookup is
// owner-scoped — an any-owner match could return a not-yet-tombstoned row
// from an older layout whose bytes interleave differently.
type source struct {
	m             *Migrator
	path          string
	gen           uint64 // the old layout's generation
	unit          int64
	addrs, owners []string
	errs          []error
}

// read fills buf with old stripe i's bytes at off.
func (s *source) read(i int, off int64, buf []byte) error {
	if s.addrs[i] != "" && s.errs[i] == nil {
		s.errs[i] = s.m.pipe(s.addrs[i], func(ctx context.Context, pool *transport.Pool) error {
			head := transport.Request{Job: s.m.job, Path: s.path, LayoutGen: s.gen}
			return transport.ReadStripe(ctx, pool, s.m.peers.Seq(), &head, off, off+int64(len(buf)),
				func(at, n int64) [][]byte { return [][]byte{buf[at-off : at-off+n]} })
		})
		if s.errs[i] == nil {
			return nil
		}
	}
	if s.m.store == nil {
		return s.errs[i]
	}
	if _, err := s.m.store.ReadRange(backing.FileMeta{Owner: s.owners[i], Path: s.path, Stripe: i}, off, buf); err != nil {
		if s.errs[i] != nil {
			return s.errs[i] // the holder's failure is the cause
		}
		return fmt.Errorf("reading %s's staged stripe %d: %w", s.owners[i], i, err)
	}
	return nil
}

// stream copies new stripe j's local bytes [0, size) of a w-stripe
// layout into dst's pending entry for layout generation newGen, one
// segment of buf at a time: each segment is filled from src and written
// with transport.WriteStripe, so the coordinator holds one segment and
// every chunk crosses the receiving server's token draw as the rebalance
// job. At the old width the segment is old stripe j's bytes at the same
// offsets, one read; narrowed, it is gathered a unit at a time through
// the round-robin map.
func (m *Migrator) stream(src *source, dst string, j, w int, size int64, newGen uint64, buf []byte) error {
	var segs [][]byte
	for off := int64(0); off < size; {
		seg := buf[:min(int64(len(buf)), size-off)]
		for done := int64(0); done < int64(len(seg)); {
			i, at, n := j, off+done, int64(len(seg))-done
			if len(src.addrs) != w {
				i, at = fsys.StripeOf(fsys.FileOff(off+done, j, w, src.unit), len(src.addrs), src.unit)
				n = min(n, src.unit-at%src.unit)
			}
			if err := src.read(i, at, seg[done:done+n]); err != nil {
				return err
			}
			done += n
		}
		segs = segs[:0]
		for c := 0; c < len(seg); c += migChunk {
			segs = append(segs, seg[c:min(c+migChunk, len(seg))])
		}
		if err := m.pipe(dst, func(ctx context.Context, pool *transport.Pool) error {
			head := transport.Request{Job: m.job, Path: src.path, LayoutGen: newGen, From: m.self}
			return transport.WriteStripe(ctx, pool, m.peers.Seq(), &head, j, segs, off)
		}); err != nil {
			return err
		}
		off += int64(len(seg))
	}
	return nil
}

// pipe runs one stripe-pipeline call to addr under callBudget. A cut
// link drops the cached connection, so the next attempt dials afresh.
func (m *Migrator) pipe(addr string, run func(ctx context.Context, pool *transport.Pool) error) error {
	pool, _, err := m.peers.Get(addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), callBudget)
	defer cancel()
	err = run(ctx, pool)
	if errors.Is(err, transport.ErrLink) {
		m.peers.Drop(addr)
	}
	return err
}

// isGone matches the missing-entry condition across the local
// (errors.Is) and remote (string-carried) forms.
func isGone(err error) bool {
	return err != nil && (errors.Is(err, fsys.ErrNotExist) || transport.IsNotExist(err))
}

// staleErr matches the stale-layout condition across the local and
// wire-carried forms.
func staleErr(err error) bool {
	return err != nil && (errors.Is(err, fsys.ErrStaleLayout) || transport.IsStaleLayout(err))
}

// --- per-holder operations: one round trip each, this server included ----

func (m *Migrator) sealOn(addr, path string, expectLayoutGen uint64) (int64, uint64, error) {
	resp, err := m.call(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: transport.MigrateSeal, Path: path,
		LayoutGen: expectLayoutGen,
	})
	if err != nil {
		return 0, 0, err
	}
	defer resp.Release()
	return resp.Size, resp.Gen, nil
}

// sealState tracks, per stripe index of the old layout, which server
// serves the frozen bytes and what the seal phase learned about it.
type sealState struct {
	srcs  []string
	sizes []int64
	gens  []uint64
	held  []bool // a seal this pass placed on srcs[i]
	sub   []bool // srcs[i] is the committed target (a resumed cutover)
	dead  []bool // set[i] is dead; its staged row sized it
}

// releaseSeals lifts every seal an abandoned migration placed. Sealed
// old-layout holders are first trimmed back to their share of the
// consistent round-robin prefix: a striped write racing the sequential
// seal phase can land a chunk on a not-yet-sealed holder while an
// already-sealed one refused — bytes the client was never acked for
// and, on an append-structured stripe, a permanent off-by-a-unit for
// every later append. (The cutover path needs no trim-on-release: every
// commit cuts its stripe to the consistent prefix.) The unseals are
// generation-checked (oldGen), so a holder a commit of this pass already
// moved on keeps what clients wrote to it since. Holders whose sizes the
// failed seal phase never learned are completed with a direct stat; if
// even that fails, the seals stay (see below). Committed-target seals
// (the resume path) are released untrimmed: their content was copied
// from a consistent prefix and is not writable under the old layout.
func (m *Migrator) releaseSeals(path string, unit int64, oldGen, newGen uint64, set []string, seals sealState) {
	if slices.Contains(seals.dead, true) {
		// A failover pass that did not cut over changes no stripe: the
		// seals lift untrimmed, and the pass that does cut over commits
		// every stripe cut to the consistent prefix. A chunk torn off a
		// write meanwhile is a positional append the client re-sends at
		// the same offset.
		for i, held := range seals.held {
			if !held {
				continue
			}
			gen := oldGen
			if seals.sub[i] {
				gen = newGen
			}
			m.unsealOn(seals.srcs[i], path, -1, gen)
		}
		return
	}
	known := true
	for i := range set {
		if seals.held[i] || seals.sub[i] {
			continue
		}
		sz, err := m.statStripe(set[i], path)
		if err != nil {
			known = false
			break
		}
		seals.sizes[i] = sz
	}
	if !known {
		// Unsealing without the trim could leave torn bytes that
		// misplace every later append, and a later cutover would trim
		// acknowledged data at the hole. Leaving the seals standing is
		// strictly safer: writes answer stale-layout (the client keeps
		// retrying inside its budget), the pass stays dirty, and the
		// retry completes the trim once the unreachable holder answers
		// — or is declared failed, and the failover pass moves the file.
		m.fail(fmt.Errorf("rebalance %s: holder sizes unknown; keeping seals until the next pass", path))
		m.dirty.Store(true)
		return
	}
	total := fsys.ConsistentTotal(seals.sizes, unit)
	for i := range set {
		if seals.sub[i] {
			if seals.held[i] {
				m.unsealOn(seals.srcs[i], path, -1, newGen)
			}
			continue
		}
		// Trim every old holder — sealed or not — back to its share of
		// the consistent prefix: the torn chunk of a write the seal
		// phase refused elsewhere lands precisely on the holders that
		// were never sealed, and no acknowledged byte can sit past the
		// prefix while any holder is still sealed. The trim doubles as
		// the unseal for the held ones.
		keep := int64(-1)
		if seals.sizes[i] > fsys.LocalLen(total, i, len(set), unit) {
			keep = fsys.LocalLen(total, i, len(set), unit)
		}
		if seals.held[i] || keep >= 0 {
			m.unsealOn(set[i], path, keep, oldGen)
		}
	}
}

// unsealOn lifts one seal placed under layoutGen; keep >= 0 first trims
// the stripe to keep bytes.
func (m *Migrator) unsealOn(addr, path string, keep int64, layoutGen uint64) {
	_ = m.send(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: transport.MigrateUnseal, Path: path,
		Size: keep, LayoutGen: layoutGen,
	})
}

// statStripe reads one holder's local stripe size.
func (m *Migrator) statStripe(addr, path string) (int64, error) {
	resp, err := m.call(addr, &transport.Request{Type: transport.MsgStat, Path: path})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	return resp.Size, nil
}

func (m *Migrator) abortAll(targets []string, path string) {
	for _, addr := range targets {
		_ = m.send(addr, &transport.Request{
			Type: transport.MsgMigrate, MigrateOp: transport.MigrateAbort, Path: path,
		})
	}
}

func (m *Migrator) commitOn(addr string, layout fsys.FileInfo, gen uint64) error {
	return m.send(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: transport.MigrateCommit,
		Path: layout.Path, Size: layout.Size, Stripes: layout.Stripes, StripeUnit: layout.StripeUnit,
		StripeSet: layout.StripeSet, LayoutGen: layout.LayoutGen, Gen: gen,
	})
}

func (m *Migrator) dropOn(addr, path string, gen uint64) error {
	return m.send(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: transport.MigrateDrop,
		Path: path, Gen: gen,
	})
}

// callBudget bounds one peer round trip. Data messages land in the
// peer's scheduler, so the reply waits for a token draw — the budget
// must comfortably exceed a saturated queue's service time.
const callBudget = 30 * time.Second

// call performs one request/response round trip with a peer under the
// rebalance job identity. A stale cached connection re-sends once over
// a fresh dial (transport.Peers.Call); the first delivery may have
// executed, which is safe because every migrate sub-op is idempotent —
// seal/unseal/abort by nature, commit by the layout-generation check,
// drop by the creation-generation check. An application-level refusal
// (the peer answered, but said no) surfaces as an error without touching
// the connection. The caller releases the response after its last touch.
func (m *Migrator) call(addr string, req *transport.Request) (*transport.Response, error) {
	req.Job = m.job
	ctx, cancel := context.WithTimeout(context.Background(), callBudget)
	defer cancel()
	resp, err := m.peers.Call(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		err = resp.Error()
		resp.Release()
		return nil, err
	}
	return resp, nil
}

// send is call for sub-ops whose reply carries nothing but success.
func (m *Migrator) send(addr string, req *transport.Request) error {
	resp, err := m.call(addr, req)
	if err == nil {
		resp.Release()
	}
	return err
}
