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
// alive, so it always exists) detects the divergence, copies the
// sealed stripes, and re-installs the file under the ring's current
// placement, two-phase like failover recovery:
//
//  1. Seal every current holder (write-freeze; reads keep serving) and
//     fetch each frozen stripe — directly from the live holders, or
//     from the backing store's append-only staged objects when a
//     holder stops answering mid-copy.
//  2. Install the re-striped content into pending (invisible) buffers
//     on the target servers, then commit — atomically rewriting the
//     layout metadata under a bumped layout generation — and drop the
//     stale stripes, generation-checked so a concurrent unlink or
//     recreate is never clobbered. Dropped stripes leave moved markers
//     and tombstone their staged objects; committed stripes are fully
//     dirty, so the ordinary drain engine converges the backing store
//     on the new layout.
//
// All peer traffic (seal, stripe fetches, installs, commits, drops)
// carries the synthetic rebalance job (policy.RebalanceJob), and data
// messages go through each receiving server's token scheduler — the
// compiled sharing policy arbitrates migration bandwidth against
// foreground I/O exactly as it does stage-out drain traffic. Peers are
// reached through a transport.Peers set (one cached connection each);
// every reply is released after its last touch.

// migChunk is the migration transfer granularity: the same 1 MiB grain
// as foreground striped writes and drain chunks, so the policy
// interleaves all three equally.
const migChunk = 1 << 20

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
		peers: transport.NewPeers(1, 1, 2*time.Second, 0),
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
	// Width-preserving migration maps new stripe i to old stripe i
	// byte-for-byte, so the committed holder of stripe i — target[i] —
	// serves the same content; seal it under the new generation and
	// fetch from there instead. Without the generation check, a resumed
	// pass would copy a committed holder's re-indexed stripe under its
	// old index and corrupt the reassembly.
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
		if staleErr(err) && len(target) == len(set) && i < len(target) {
			if size, _, rerr := m.sealOn(target[i], fi.Path, newGen); rerr == nil {
				seals.srcs[i], seals.sizes[i], seals.held[i], seals.sub[i] = target[i], size, true, true
				continue
			}
		}
		sealErr = err
		break
	}
	if sealErr != nil {
		m.releaseSeals(fi.Path, unit, set, seals)
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
	var moved int64
	// Copy: fetch each frozen stripe, trimmed to the consistent prefix.
	parts := make([][]byte, len(set))
	for i := range set {
		want := fsys.LocalLen(total, i, len(set), unit)
		data, err := m.fetchStripe(seals.srcs[i], fi.Path, i, want)
		if err != nil {
			m.releaseSeals(fi.Path, unit, set, seals)
			return err
		}
		parts[i] = data
		moved += int64(len(data))
	}
	// Project the new local stripes. Migration preserves width and unit
	// (only the server set shifts), and the round-robin projection
	// depends on nothing else — so new stripe j is old stripe j,
	// byte-for-byte, with no intermediate full-content copy. The
	// general re-stripe path (via backing.Interleave, shared with
	// failover reassembly) stays for a future width change.
	var stripes [][]byte
	if len(target) == len(set) {
		stripes = parts
	} else {
		full := backing.Interleave(parts, unit)
		stripes = make([][]byte, len(target))
		for j := range target {
			stripes[j] = stripeOf(full, j, len(target), unit)
		}
	}

	// Generation guard: the coordinator is always a current holder, so
	// its local creation generation moving means the path was unlinked
	// or recreated while we copied — the new incarnation owns the name.
	selfIdx := slices.Index(set, m.self)
	if selfIdx < 0 || m.shard.GenOf(fi.Path) != seals.gens[selfIdx] {
		m.releaseSeals(fi.Path, unit, set, seals)
		m.shard.MigrateAbort(fi.Path)
		return nil
	}

	// Phase two: install each new local stripe into a pending buffer on
	// its target, commit the new layout everywhere (remote targets
	// first, self last, so an interrupted cutover leaves this
	// coordinator's old layout in place and the next pass resumes),
	// then drop the stale stripes.
	for j, addr := range target {
		if err := m.installOn(addr, fi.Path, stripes[j]); err != nil {
			m.abortAll(target[:j+1], fi.Path)
			m.releaseSeals(fi.Path, unit, set, seals)
			return err
		}
	}
	// Re-check the unlink guard at the cutover edge: the installs are
	// policy-throttled and can take a while, and a commit after an
	// unlink would resurrect the file on the targets. (The residual
	// window — an unlink landing between this check and the commit
	// deliveries — is one round trip, the same bounded-async exposure
	// as failover recovery's adoption.)
	if m.shard.GenOf(fi.Path) != seals.gens[selfIdx] {
		m.abortAll(target, fi.Path)
		m.releaseSeals(fi.Path, unit, set, seals)
		return nil
	}
	for _, addr := range target {
		if addr == m.self {
			continue
		}
		// Commits are idempotent (layout-generation-checked on the
		// receiver), so transport failures retry in place — the
		// alternative, abandoning a partially committed cutover, leaves
		// a mixed-generation file for the resume path to repair.
		var cerr error
		for attempt := 0; attempt < 3; attempt++ {
			if cerr = m.commitOn(addr, fi.Path, len(target), unit, target, newGen); cerr == nil {
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
			m.releaseSeals(fi.Path, unit, set, seals)
			return cerr
		}
	}
	if slices.Index(target, m.self) >= 0 {
		if err := m.shard.MigrateCommit(fi.Path, len(target), unit, target, newGen); err != nil {
			m.releaseSeals(fi.Path, unit, set, seals)
			return err
		}
	}
	// Cutover done: retire the stale stripes. A failed drop does not
	// fail the file — the cutover is complete — but it is queued for
	// retry on every subsequent pass: nothing else ever revisits the
	// holder (the entry is already off the recorded layout), and an
	// unretired stripe leaks its device extents and staged object.
	for i, addr := range set {
		if slices.Index(target, addr) >= 0 {
			continue // replaced by its commit
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

// stripeOf projects the round-robin local stripe j of a width-n layout
// out of the full content.
func stripeOf(full []byte, j, n int, unit int64) []byte {
	if n <= 1 {
		return full
	}
	var out []byte
	total := int64(len(full))
	for off := int64(j) * unit; off < total; off += unit * int64(n) {
		end := off + unit
		if end > total {
			end = total
		}
		out = append(out, full[off:end]...)
	}
	return out
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

// --- per-holder operations (local fast path + remote RPC) ---------------

func (m *Migrator) sealOn(addr, path string, expectLayoutGen uint64) (int64, uint64, error) {
	if addr == m.self {
		return m.shard.Seal(path, expectLayoutGen)
	}
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
// already-sealed one refuses — bytes the client was never acked for
// and, on an append-structured stripe, a permanent off-by-a-unit for
// every later append. (The cutover path needs no trim-on-release: its
// installs are cut from the consistent prefix and the commit replaces
// the entries wholesale.) Holders whose sizes the failed seal phase
// never learned are completed with a direct stat; if even that fails,
// the seal lifts untrimmed and the next pass — or the eventual
// cutover, which always trims — converges. Committed-target seals (the
// resume path) are released untrimmed: their content was installed
// from a consistent prefix and is not writable under the old layout.
func (m *Migrator) releaseSeals(path string, unit int64, set []string, seals sealState) {
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
				m.unsealOn(seals.srcs[i], path, -1)
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
			addr := set[i]
			if seals.held[i] {
				addr = seals.srcs[i]
			}
			m.unsealOn(addr, path, keep)
		}
	}
}

// unsealOn lifts one seal; keep >= 0 additionally trims the stripe to
// keep bytes first.
func (m *Migrator) unsealOn(addr, path string, keep int64) {
	if addr == m.self {
		if keep >= 0 {
			if err := m.shard.UnsealTrim(path, keep); err != nil {
				m.fail(fmt.Errorf("rebalance %s: trimming local stripe: %w", path, err))
			}
			return
		}
		m.shard.Unseal(path)
		return
	}
	op, size := transport.MigrateUnseal, int64(0)
	if keep >= 0 {
		op, size = transport.MigrateUnsealTrim, keep
	}
	_ = m.send(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: op, Path: path, Size: size,
	})
}

// statStripe reads one holder's local stripe size.
func (m *Migrator) statStripe(addr, path string) (int64, error) {
	if addr == m.self {
		fi, err := m.shard.Stat(path)
		if err != nil {
			return 0, err
		}
		return fi.Size, nil
	}
	resp, err := m.call(addr, &transport.Request{Type: transport.MsgStat, Path: path})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	return resp.Size, nil
}

func (m *Migrator) abortAll(targets []string, path string) {
	for _, addr := range targets {
		if addr == m.self {
			m.shard.MigrateAbort(path)
			continue
		}
		_ = m.send(addr, &transport.Request{
			Type: transport.MsgMigrate, MigrateOp: transport.MigrateAbort, Path: path,
		})
	}
}

// fetchStripe reads the frozen local stripe of path on addr. When the
// holder stops answering mid-copy and a backing store is configured,
// the holder's own staged object stands in: the store is
// append-structured, so any prefix that holder staged under this
// stripe index is byte-identical to the live stripe. The lookup is
// owner-scoped — an any-owner match could return a not-yet-tombstoned
// row from an older layout whose bytes interleave differently.
func (m *Migrator) fetchStripe(addr, path string, stripe int, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, 0, size)
	if addr == m.self {
		buf = buf[:size]
		n, err := m.shard.ReadAt(path, 0, buf)
		if err != nil || int64(n) != size {
			return nil, fmt.Errorf("local stripe read: n=%d err=%v", n, err)
		}
		return buf, nil
	}
	var ferr error
	for off := int64(0); off < size; {
		want := int64(migChunk)
		if want > size-off {
			want = size - off
		}
		resp, err := m.call(addr, &transport.Request{
			Type: transport.MsgRead, Path: path, Offset: off, Size: want,
		})
		if err != nil {
			ferr = err
			break
		}
		if resp.N < want {
			ferr = fmt.Errorf("short stripe read from %s: %d < %d", addr, resp.N, want)
			resp.Release()
			break
		}
		buf = append(buf, resp.Data[:want]...)
		resp.Release()
		off += want
	}
	if ferr == nil {
		return buf, nil
	}
	if m.store != nil {
		if data, _, err := m.store.ReadObject(addr, path, stripe); err == nil && int64(len(data)) >= size {
			return data[:size], nil
		}
	}
	return nil, ferr
}

func (m *Migrator) installOn(addr, path string, data []byte) error {
	for off := int64(0); ; {
		end := off + migChunk
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if addr == m.self {
			if err := m.shard.MigrateInstall(path, off, data[off:end]); err != nil {
				return err
			}
		} else {
			if err := m.send(addr, &transport.Request{
				Type: transport.MsgMigrate, MigrateOp: transport.MigrateInstall,
				Path: path, Offset: off, Data: data[off:end],
			}); err != nil {
				return err
			}
		}
		off = end
		if off >= int64(len(data)) {
			return nil
		}
	}
}

func (m *Migrator) commitOn(addr, path string, stripes int, unit int64, set []string, layoutGen uint64) error {
	return m.send(addr, &transport.Request{
		Type: transport.MsgMigrate, MigrateOp: transport.MigrateCommit,
		Path: path, Stripes: stripes, StripeUnit: unit, StripeSet: set,
		LayoutGen: layoutGen,
	})
}

func (m *Migrator) dropOn(addr, path string, gen uint64) error {
	if addr == m.self {
		m.shard.MigrateDrop(path, gen)
		return nil
	}
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
// seal/unseal/abort by nature, install by its in-order offset check,
// commit by the layout-generation check, drop by the creation-generation
// check. An application-level refusal (the peer answered, but said no)
// surfaces as an error without touching the connection. The caller
// releases the response after its last touch.
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
