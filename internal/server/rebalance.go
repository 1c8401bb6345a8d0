package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
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

// Join-time stripe rebalancing: when the membership ring's epoch moves
// because a member joined, file layouts pinned at creation no longer
// match the ring's placement, so the new member serves none of the existing
// bytes. The migrator closes that gap: the file's recorded set[0]
// server (the coordinator — for a join, every recorded holder is still
// alive, so it always exists) detects the divergence and moves the file
// to the ring's current placement, two-phase like failover recovery:
//
//  1. Seal every current holder (write-freeze; reads keep serving) and
//     stream each stripe whose holder changes into a pending entry on
//     its new holder, through the stripe pipeline: read from the sealed
//     holder — or from its staged object when it stops answering — and
//     written as positional appends, one segment at a time.
//  2. Commit the new layout on every new holder under a bumped layout
//     generation — the pending entry swapped in, or a stripe whose
//     holder and index both survive re-labelled in place — and drop the
//     stale stripes, generation-checked so a concurrent unlink or
//     recreate is never clobbered. Dropped stripes leave moved markers
//     and tombstone their staged objects; committed stripes are dirty,
//     so the ordinary drain engine converges the backing store on the
//     new layout.
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

	// running admits one pass at a time (the controller ticks every λ;
	// a tick that finds a pass in flight changes nothing). planned is
	// the ring epoch the shard was last fully reconciled against: the
	// pass is a no-op until the epoch moves again or a previous pass
	// left errors behind.
	running atomic.Bool
	planned atomic.Uint64
	dirty   atomic.Bool // a pass failed; retry even at the same epoch

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
}

type pendingDrop struct {
	addr, path string
	gen        uint64
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
	plan, skipped := m.plan(mem)
	m.pending.Store(int64(len(plan)))
	ok := true
	for _, fi := range plan {
		if err := m.migrateFile(mem, fi); err != nil {
			m.fail(fmt.Errorf("rebalance %s: %w", fi.Path, err))
			ok = false
		}
		m.pending.Add(-1)
	}
	m.pending.Store(0)
	m.mu.Lock()
	dropsLeft := len(m.drops)
	m.mu.Unlock()
	// Advance the reconciled epoch only if every candidate settled, no
	// candidate was skipped for a transiently non-alive member (a
	// suspect recovering to alive moves no epoch, so only the dirty
	// flag would ever revisit it), no stale-stripe drop is still owed,
	// and the ring did not move mid-pass; otherwise the next λ tick
	// replans.
	if ok && skipped == 0 && dropsLeft == 0 && mem.Epoch() == epoch {
		m.planned.Store(epoch)
	} else if !ok || skipped > 0 || dropsLeft > 0 {
		m.dirty.Store(true)
	}
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

// plan scans the shard for files whose recorded layout diverges from
// the ring's current placement and that this server coordinates
// (self == recorded set[0]; unrecorded legacy layouts are coordinated
// by their holder). Files touching any non-alive member are counted
// as skipped, not planned — failure reconciliation belongs to failover
// recovery, and a transient suspect resolves within a few λ — and a
// non-zero skip count keeps the pass from settling.
func (m *Migrator) plan(mem *cluster.Membership) ([]fsys.FileInfo, int) {
	ring := mem.Ring()
	var out []fsys.FileInfo
	skipped := 0
	for _, fi := range m.shard.FileLayouts() {
		set := fi.StripeSet
		if len(set) == 0 {
			if fi.Stripes > 1 {
				// A legacy multi-stripe layout with no recorded set: the
				// other holders are underivable (the creating ring is
				// gone), and migrating just the local stripe as if it
				// were the whole file would destroy the rest. Leave it
				// where the hash put it.
				continue
			}
			set = []string{m.self}
		}
		if set[0] != m.self {
			continue
		}
		width := fi.Stripes
		if width < 1 {
			width = 1
		}
		target := ring.LookupN(fi.Path, width)
		if len(target) == 0 || slices.Equal(set, target) {
			continue
		}
		alive := true
		for _, a := range append(append([]string{}, set...), target...) {
			if !mem.IsAlive(a) {
				alive = false
				break
			}
		}
		if !alive {
			skipped++
			continue
		}
		fi.StripeSet = set
		out = append(out, fi)
	}
	return out, skipped
}

// migrateFile moves one file from its recorded layout to the ring's
// current placement. A nil return means settled: migrated, found
// already gone, or skipped because the path changed under us (the next
// pass re-plans).
func (m *Migrator) migrateFile(mem *cluster.Membership, fi fsys.FileInfo) error {
	set := fi.StripeSet
	target := mem.Ring().LookupN(fi.Path, max(1, fi.Stripes))
	if len(target) == 0 || slices.Equal(set, target) {
		return nil
	}
	if len(target) != len(set) {
		// The ring shrank below the file's width since the plan: leave
		// the file where it is and let a later pass move it.
		m.dirty.Store(true)
		return nil
	}
	unit := fi.StripeUnit
	if unit <= 0 {
		unit = fsys.DefaultStripeUnit
	}

	newGen := fi.LayoutGen + 1
	if newGen < 2 {
		newGen = 2 // legacy entries may report generation zero
	}
	// Phase one: seal every current holder, generation-checked against
	// the recorded layout. The seal freezes each local stripe (writes
	// answer stale-layout and the client retries against the new layout
	// after cutover), so the sizes reported here are final and the copy
	// can never miss an acknowledged byte.
	//
	// A stale answer from a holder means it already carries the NEW
	// layout — this pass is resuming a cutover an earlier pass started
	// but could not finish (a commit executed whose reply was lost).
	// Migration maps new stripe i to old stripe i byte-for-byte, so the
	// committed holder of stripe i — target[i] — serves the same content;
	// seal it under the new generation and read from there instead.
	// Without the generation check, a resumed pass would copy a committed
	// holder's re-indexed stripe under its old index and corrupt the
	// reassembly.
	seals := sealState{
		srcs:  make([]string, len(set)), // who serves stripe i's frozen bytes
		sizes: make([]int64, len(set)),
		gens:  make([]uint64, len(set)), // old holders' creation gens (for drops)
		held:  make([]bool, len(set)),   // a seal this pass placed
		sub:   make([]bool, len(set)),   // src is the committed target (resume)
	}
	var sealErr error
	for i, addr := range set {
		size, gen, err := m.sealOn(addr, fi.Path, fi.LayoutGen)
		if err == nil {
			seals.srcs[i], seals.sizes[i], seals.gens[i], seals.held[i] = addr, size, gen, true
			continue
		}
		if staleErr(err) {
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
		if isGone(sealErr) || staleErr(sealErr) {
			return nil // unlinked, or moved on in a way this pass cannot resume
		}
		return sealErr
	}

	// The migrated content is the longest round-robin-consistent prefix
	// of the sealed stripes. Anything past it is the torn tail of a
	// write that raced the seal — some chunks landed, an earlier one
	// was refused — which the client was never acked for and re-issues
	// against the new layout after its re-stat; carrying such an orphan
	// unit over verbatim would make the re-stat size include bytes that
	// are not a prefix of the interrupted write, and the client's
	// "surviving prefix" arithmetic would then resume at the wrong
	// offset.
	total := fsys.ConsistentTotal(seals.sizes, unit)
	// Copy: stream every stripe whose holder changes into its new
	// holder's pending entry, from the old holder sealed above. A stripe
	// already on its new holder — the same server at the same index, or
	// a committed target being resumed — is not copied; its commit
	// re-labels it in place.
	var moved int64
	var buf []byte
	for j, dst := range target {
		size := fsys.LocalLen(total, j, len(target), unit)
		if seals.srcs[j] == dst || size == 0 {
			continue
		}
		if int64(len(buf)) < min(size, migSegment) {
			buf = make([]byte, min(size, migSegment))
		}
		if err := m.stream(seals.srcs[j], dst, fi.Path, j, size, fi.LayoutGen, newGen, buf); err != nil {
			m.abortAll(target[:j+1], fi.Path)
			release()
			return err
		}
		moved += size
	}

	// Generation guard at the cutover edge: the coordinator is always a
	// current holder, so its local creation generation moving means the
	// path was unlinked or recreated while we copied — the new
	// incarnation owns the name, and a commit would resurrect the file on
	// the targets. (The residual window — an unlink landing between this
	// check and the commit deliveries — is one round trip, the same
	// bounded-async exposure as failover recovery's adoption.)
	selfIdx := slices.Index(set, m.self)
	if selfIdx < 0 || m.shard.GenOf(fi.Path) != seals.gens[selfIdx] {
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
		if seals.srcs[j] == target[j] {
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
			// partial cutover) or through failover recovery.
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
	for i, addr := range set {
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
	m.files.Add(1)
	m.bytes.Add(moved)
	return nil
}

// stream copies the stripe-local bytes [0, size) of path from src into
// dst's pending entry for layout generation newGen (src serves them
// under srcGen), one segment of buf at a time: each segment is read with
// transport.ReadStripe and written with transport.WriteStripe, so the
// coordinator holds one segment and every chunk crosses the receiving
// server's token draw as the rebalance job. When src stops answering
// and a backing store is configured, src's own staged object stands in
// for the rest of the stripe, read into the same buffer: the store is
// append-structured, so any prefix src staged under this stripe index is
// byte-identical to the live stripe. The lookup is owner-scoped — an
// any-owner match could return a not-yet-tombstoned row from an older
// layout whose bytes interleave differently.
func (m *Migrator) stream(src, dst, path string, idx int, size int64, srcGen, newGen uint64, buf []byte) error {
	var srcErr error // src stopped answering: read its staged object
	var segs [][]byte
	for off := int64(0); off < size; {
		seg := buf[:min(int64(len(buf)), size-off)]
		if srcErr == nil {
			srcErr = m.pipe(src, func(ctx context.Context, pool *transport.Pool) error {
				head := transport.Request{Job: m.job, Path: path, LayoutGen: srcGen}
				return transport.ReadStripe(ctx, pool, m.peers.Seq(), &head, off, off+int64(len(seg)),
					func(at int64, data []byte) { copy(seg[at-off:], data) })
			})
		}
		if srcErr != nil {
			if m.store == nil {
				return srcErr
			}
			if _, err := m.store.ReadRange(backing.FileMeta{Owner: src, Path: path, Stripe: idx}, off, seg); err != nil {
				return srcErr
			}
		}
		segs = segs[:0]
		for c := 0; c < len(seg); c += migChunk {
			segs = append(segs, seg[c:min(c+migChunk, len(seg))])
		}
		if err := m.pipe(dst, func(ctx context.Context, pool *transport.Pool) error {
			head := transport.Request{Job: m.job, Path: path, LayoutGen: newGen, From: m.self}
			return transport.WriteStripe(ctx, pool, m.peers.Seq(), &head, idx, segs, off)
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
		// — or failover recovery replaces the entries wholesale.
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
