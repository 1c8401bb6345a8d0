// Package core implements the ThemisIO scheduler — the paper's primary
// contribution. Incoming I/O requests are grouped into per-job queues by
// the communicator; the controller compiles the active sharing policy over
// the active job set into a statistical token assignment (a probability
// segment per job on [0,1), Equation 1); and each worker draws a token to
// choose which job's queue to serve next.
//
// Two properties fall out of the design:
//
//   - Opportunity fairness: the draw is conditioned on jobs that actually
//     have pending requests, so idle I/O cycles are reassigned to jobs with
//     demand and the system always operates at maximal throughput (§1).
//   - Processing isolation: because every service decision is its own
//     draw, a bursty job can never pack the queue ahead of a modest one —
//     service rates match the policy shares at the granularity of single
//     requests ("time slicing").
//
// The implementation is epoch-compiled: the compiled policy is published
// as an immutable epoch through an atomic pointer (recompiled only by the
// controller, never on the data path), per-job queues are lock-striped by
// job id, and token draws come from a lock-free counter-indexed
// equidistributed sequence. Push and Pop therefore perform no policy
// work and take no global lock — only the one shard lock covering the
// touched job. The share guarantees are unaffected: the points of the
// sequence cover [0,1) equally evenly whether taken one at a time under
// a global lock or concurrently against a shared epoch.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/token"
)

// numShards is the queue lock-stripe count. Shard index is a hash of the
// job id, so concurrent pushes for different jobs contend only when they
// collide mod 16 — plenty for the worker-pool sizes the server runs.
const numShards = 16

// shard is one lock stripe: the queues of every job hashing to it.
// Padding keeps neighboring shard locks on separate cache lines.
type shard struct {
	mu sync.Mutex
	q  *sched.JobQueues
	_  [40]byte
}

// jobState is a job's lock-free scheduling summary: one backlog counter
// per service class, maintained under the job's shard lock (so they
// exactly track queue content at lock boundaries) and read without any
// lock by the eligibility scan, plus the served tally. Counters can be
// momentarily stale to a reader — the conditioned draw re-checks under
// the shard lock when it pops, so staleness costs at most a redraw,
// never a wrong pop.
type jobState struct {
	cls    [sched.NumClasses]atomic.Int64
	served atomic.Int64
	// bytes is the job's cumulative serviced-byte counter (request Cost:
	// payload bytes for data ops, the nominal MetaCost for metadata),
	// charged lock-free at the pop that hands the request to a worker.
	// The controller's λ share ledger turns these into measured
	// per-entity shares to compare against the compiled token shares.
	bytes atomic.Int64
	// dirty flags that bytes moved since the controller's last
	// ServedBytesDelta drain; the first charge per window also appends
	// the job to the scheduler's dirty list, so a λ drain touches only
	// jobs that actually serviced bytes — O(active), not O(known).
	dirty atomic.Bool
	// lastReported is the bytes value at the last drain. Controller-only
	// (single ServedBytesDelta caller), so no atomics needed.
	lastReported int64
}

// backlogged reports whether any class has queued work (the allow==nil
// eligibility check of the live server's hot path).
func (s *jobState) backlogged() bool {
	return s.cls[0].Load() > 0 || s.cls[1].Load() > 0 || s.cls[2].Load() > 0
}

// epoch is one immutable compiled-policy publication. Workers load the
// current epoch with a single atomic pointer read; the controller
// replaces it wholesale on job-set changes and λ ticks.
type epoch struct {
	seq      uint64
	compiled *policy.Compiled
	// assign is compiled.Assignment, which computes every draw; a draw
	// yields block/index coordinates (b, j). states[b][j] and
	// shards[b][j] are that job's counter block and lock stripe,
	// resolved per block so the per-pop path does no hashing and no map
	// lookups outside the queue itself — and reused pointer-identical
	// from the previous epoch for every block a delta recompile
	// structurally shared, which keeps steady-state publication
	// O(churn + scopes) rather than O(jobs).
	assign *token.Assignment
	states [][]*jobState
	shards [][]*shard
}

// Themis is the statistical-token scheduler. It implements
// sched.Scheduler. It is safe for concurrent use: the live server calls
// Push from connection goroutines and Pop from workers with no global
// lock; the simulator is single-threaded and pays only uncontended
// shard-lock overhead.
type Themis struct {
	// confMu serializes the cold path: SetJobs/SetPolicy recompilation
	// and epoch publication. The data path never takes it.
	confMu sync.Mutex
	pol    policy.Policy
	jobs   []policy.JobInfo

	epoch  atomic.Pointer[epoch]
	strict atomic.Bool
	// draws feeds the unconditioned draw, redraws the eligibility-
	// conditioned one. They are separate because the next point of one
	// sequence is a fixed rotation of the point that just missed: redrawn
	// from draws, jobs 2:1:1 with the last idle are served 0.824 / 0.176.
	draws   drawSeq
	redraws drawSeq
	pending atomic.Int64
	wasted  atomic.Int64
	// compilesFull counts from-scratch policy compilations (SetJobs,
	// SetPolicy, and ApplyDelta fallbacks); compilesDelta counts
	// incremental recompiles that patched the previous epoch's share
	// tree. Compiles() reports their sum.
	compilesFull  atomic.Int64
	compilesDelta atomic.Int64

	// dirtyMu guards dirtyJobs, the list of jobs whose bytes counter
	// moved since the last ServedBytesDelta drain (each appears once,
	// gated by jobState.dirty).
	dirtyMu   sync.Mutex
	dirtyJobs []string

	// drawObs, when set, is called with the wall-clock duration of every
	// Pop that hands out a request — the operator endpoint's draw-latency
	// histogram. Unset (the default, and every benchmark's configuration)
	// it costs the hot path one atomic pointer load.
	drawObs atomic.Pointer[func(time.Duration)]

	// states maps job id → *jobState; entries are created on first push
	// (or epoch publication) and never removed — job ids recur, and a
	// zeroed counter block is cheap.
	states sync.Map
	// order publishes the job ids in first-seen order (copy-on-write,
	// appended only when a job id is first registered): the fallback pop
	// serves the oldest-created queue first, exactly as the pre-striping
	// single JobQueues did, rather than an arbitrary shard-hash order.
	orderMu sync.Mutex
	order   atomic.Pointer[[]string]

	shards [numShards]shard
}

// New returns a Themis scheduler enforcing the given policy. seed fixes
// the start of the token sequence; experiments use distinct fixed seeds
// so results are reproducible, and servers of one fabric must differ or
// they serve a striped job at the same instants.
func New(pol policy.Policy, seed int64) *Themis {
	t := &Themis{pol: pol}
	t.draws.start = mix64(uint64(seed))
	t.redraws.start = mix64(^uint64(seed))
	t.order.Store(new([]string))
	for i := range t.shards {
		t.shards[i].q = sched.NewJobQueues()
	}
	return t
}

// drawSeq generates a token stream: draw i is point i of the Kronecker
// sequence frac(start + i/φ), in 64-bit fixed point. The sequence is
// equidistributed with discrepancy O(log N / N), so a segment of width w
// receives N·w ± O(1) of any N consecutive draws and, by the
// three-distance theorem, never waits more than ≈ 2/w of them — where
// independent draws wander by O(√N). Indexing by an atomic counter makes
// concurrent draws lock-free while keeping the single-threaded stream
// (the simulator, the tests) deterministic for a fixed seed.
type drawSeq struct {
	start uint64
	ctr   atomic.Uint64
}

// mix64 is the splitmix64 finalizer (same avalanche as chash uses for
// ring placement); it scrambles seeds into stream starts and nothing
// else.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// next returns the stream's next point in [0, 1).
func (d *drawSeq) next() float64 {
	i := d.ctr.Add(1)
	return float64((d.start+i*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}

// shardIdx maps a job id to its lock stripe (FNV-1a).
func shardIdx(job string) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(job); i++ {
		h ^= uint64(job[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
}

// Name implements sched.Scheduler.
func (t *Themis) Name() string {
	t.confMu.Lock()
	defer t.confMu.Unlock()
	return "themis-" + t.pol.String()
}

// Policy returns the active sharing policy.
func (t *Themis) Policy() policy.Policy {
	t.confMu.Lock()
	defer t.confMu.Unlock()
	return t.pol
}

// SetPolicy switches the sharing policy at runtime and republishes the
// compiled epoch ("the statistical assignment can be easily adjusted by
// recalculating the matrix multiplication", §3).
func (t *Themis) SetPolicy(pol policy.Policy) {
	t.confMu.Lock()
	defer t.confMu.Unlock()
	t.pol = pol
	t.republishLocked()
}

// SetJobs installs the active job set and publishes a new compiled epoch
// from scratch. The controller (package control) patches this scheduler
// through ApplyDelta instead; SetJobs is for callers that hold a whole
// set, and never runs per request.
func (t *Themis) SetJobs(jobs []policy.JobInfo) {
	t.confMu.Lock()
	defer t.confMu.Unlock()
	t.jobs = append(t.jobs[:0], jobs...)
	t.republishLocked()
}

func (t *Themis) republishLocked() {
	c, err := policy.Compile(t.jobs, t.pol)
	if err != nil {
		// Compilation fails only on structurally impossible inputs (all
		// weights zero); keep the previous epoch rather than stall.
		return
	}
	t.publishCompiledLocked(c)
	t.compilesFull.Add(1)
}

// ApplyDelta installs the job set like SetJobs but compiles it
// incrementally: the previous epoch's share tree is patched with the
// delta (O(churn) instead of O(jobs)). Any condition the delta path
// cannot prove correct — no prior epoch, a policy change since it was
// compiled, a recompile error, or a job-count mismatch between the
// patched tree and the authoritative slice — falls back to a full
// compile, so ApplyDelta is always safe to call with a best-effort
// delta. Epoch publication stays a single atomic pointer swap.
func (t *Themis) ApplyDelta(jobs []policy.JobInfo, d policy.Delta) {
	t.confMu.Lock()
	defer t.confMu.Unlock()
	t.jobs = append(t.jobs[:0], jobs...)
	e := t.epoch.Load()
	if e == nil || e.compiled == nil || !e.compiled.Policy.Equal(t.pol) {
		t.republishLocked()
		return
	}
	c, err := policy.Recompile(e.compiled, d)
	if err != nil || c.JobCount() != len(jobs) {
		t.republishLocked()
		return
	}
	t.publishCompiledLocked(c)
	t.compilesDelta.Add(1)
}

// publishCompiledLocked resolves the compiled assignment's jobs to
// their state and stripe tables and swaps the new epoch in. Blocks
// carried over unchanged from the previous epoch (a delta recompile
// shares them pointer-identical) reuse their resolved tables, so only
// churned scopes pay the per-job resolution.
func (t *Themis) publishCompiledLocked(c *policy.Compiled) {
	blocks := c.Assignment.Blocks()
	prev := t.epoch.Load()
	var prevIdx map[*token.Block]int
	if prev != nil && len(prev.assign.Blocks()) > 0 {
		prevIdx = make(map[*token.Block]int, len(prev.assign.Blocks()))
		for i, b := range prev.assign.Blocks() {
			prevIdx[b] = i
		}
	}
	e := &epoch{
		seq:      1,
		compiled: c,
		assign:   c.Assignment,
		states:   make([][]*jobState, len(blocks)),
		shards:   make([][]*shard, len(blocks)),
	}
	if prev != nil {
		e.seq = prev.seq + 1
	}
	for bi, b := range blocks {
		if pi, ok := prevIdx[b]; ok {
			e.states[bi] = prev.states[pi]
			e.shards[bi] = prev.shards[pi]
			continue
		}
		sts := make([]*jobState, len(b.Jobs))
		shs := make([]*shard, len(b.Jobs))
		for j, job := range b.Jobs {
			sts[j] = t.state(job)
			shs[j] = &t.shards[shardIdx(job)]
		}
		e.states[bi] = sts
		e.shards[bi] = shs
	}
	t.epoch.Store(e)
}

// state returns the job's counter block, creating it on first sight and
// recording the job's position in the first-seen order.
func (t *Themis) state(job string) *jobState {
	if v, ok := t.states.Load(job); ok {
		return v.(*jobState)
	}
	v, loaded := t.states.LoadOrStore(job, &jobState{})
	if !loaded {
		t.orderMu.Lock()
		old := *t.order.Load()
		next := make([]string, len(old), len(old)+1)
		copy(next, old)
		next = append(next, job)
		t.order.Store(&next)
		t.orderMu.Unlock()
	}
	return v.(*jobState)
}

// Compiles returns the number of policy compilations performed since
// creation — full and delta combined. The request path never compiles,
// so this grows O(job-set changes + λ ticks), not O(requests) —
// asserted by the server's regression test.
func (t *Themis) Compiles() int64 { return t.compilesFull.Load() + t.compilesDelta.Load() }

// CompilesFull returns the number of from-scratch compilations.
func (t *Themis) CompilesFull() int64 { return t.compilesFull.Load() }

// CompilesDelta returns the number of incremental delta recompiles.
func (t *Themis) CompilesDelta() int64 { return t.compilesDelta.Load() }

// EpochSeq returns the current epoch's sequence number (0 before the
// first SetJobs).
func (t *Themis) EpochSeq() uint64 {
	if e := t.epoch.Load(); e != nil {
		return e.seq
	}
	return 0
}

// Assignment returns the current token assignment (nil before the first
// SetJobs), for tests.
func (t *Themis) Assignment() *token.Assignment {
	e := t.epoch.Load()
	if e == nil {
		return nil
	}
	return e.compiled.Assignment
}

// Push implements sched.Scheduler: enqueue on the job's queue, creating
// it on first sight. Only the job's shard lock is taken. The caller
// (server communicator) is responsible for also feeding the job table so
// the controller's SetJobs eventually reflects the job.
func (t *Themis) Push(r *sched.Request) {
	st := t.state(r.Job.JobID)
	sh := &t.shards[shardIdx(r.Job.JobID)]
	sh.mu.Lock()
	sh.q.Push(r)
	st.cls[sched.ClassOf(r.Op)].Add(1)
	sh.mu.Unlock()
	t.pending.Add(1)
}

// peek reports whether the job has an allowed head request right now.
func (t *Themis) peek(job string, allow sched.AllowFunc) bool {
	sh := &t.shards[shardIdx(job)]
	sh.mu.Lock()
	ok := sh.q.PeekFrom(job, allow) != nil
	sh.mu.Unlock()
	return ok
}

// popFromResolved removes the job's oldest allowed request — nil if none
// (or if a concurrent worker won the race since the caller's peek) —
// with the job's state and stripe already in hand (the epoch caches both
// per segment, so draws skip the hashing).
func (t *Themis) popFromResolved(job string, st *jobState, sh *shard, allow sched.AllowFunc) *sched.Request {
	sh.mu.Lock()
	r := sh.q.PopFrom(job, allow)
	if r != nil {
		st.cls[sched.ClassOf(r.Op)].Add(-1)
	}
	sh.mu.Unlock()
	if r != nil {
		st.served.Add(1)
		st.bytes.Add(r.Cost())
		if !st.dirty.Load() && st.dirty.CompareAndSwap(false, true) {
			t.dirtyMu.Lock()
			t.dirtyJobs = append(t.dirtyJobs, job)
			t.dirtyMu.Unlock()
		}
		t.pending.Add(-1)
	}
	return r
}

// Pop implements sched.Scheduler: draw a statistical token conditioned on
// eligible jobs — jobs with a backlog whose head request the serving
// plane can start now (allow filter) — and serve the head of the chosen
// job's queue. A job that has traffic but is not yet in the assignment
// (its first requests raced the controller) is served only when no job
// in the assignment has an eligible request — which, against a
// saturating job, is never: such a job waits for the compile its
// arrival asked the controller for (package control).
//
// Pop loads the current epoch once and touches only the shard locks of
// the jobs it inspects; under contention a draw can lose the chosen head
// to another worker, in which case the job is dropped from the eligible
// set and the draw retried, preserving the conditioned distribution.
func (t *Themis) Pop(now time.Duration, allow sched.AllowFunc) *sched.Request {
	if t.pending.Load() == 0 {
		return nil
	}
	if obs := t.drawObs.Load(); obs != nil {
		start := time.Now()
		r := t.pop(now, allow)
		if r != nil {
			(*obs)(time.Since(start))
		}
		return r
	}
	return t.pop(now, allow)
}

// pop is Pop's body (split so the observer wrapper stays off the
// uninstrumented path).
func (t *Themis) pop(now time.Duration, allow sched.AllowFunc) *sched.Request {
	e := t.epoch.Load()
	if e != nil && e.assign.Len() > 0 {
		if t.strict.Load() {
			// Ablation mode: unconditioned draw; a miss wastes the cycle.
			if b, j := e.assign.Locate(t.draws.next()); b >= 0 {
				if r := t.popFromResolved(e.assign.Blocks()[b].Jobs[j], e.states[b][j], e.shards[b][j], allow); r != nil {
					return r
				}
			}
			t.wasted.Add(1)
			return nil
		}
		// Optimistic unconditioned draw first: serving the drawn job when
		// it has work, and falling back to a fully conditioned redraw when
		// it does not, yields exactly the conditioned distribution —
		// P(serve j) = w_j + (1-E)·w_j/E = w_j/E over eligible mass E —
		// while making the saturated hot path O(log jobs): one draw, two
		// binary searches (block, then segment within it), one counter
		// load, one shard lock.
		if allow == nil {
			if b, j := e.assign.Locate(t.draws.next()); b >= 0 && e.states[b][j].backlogged() {
				if r := t.popFromResolved(e.assign.Blocks()[b].Jobs[j], e.states[b][j], e.shards[b][j], nil); r != nil {
					return r
				}
			}
		}
		if r := t.popCompiled(e, allow); r != nil {
			return r
		}
	}
	// No assignment yet, or all backlogged jobs are outside it: serve the
	// oldest-created eligible queue.
	return t.popAny(allow)
}

// popCompiled draws over the epoch's segments conditioned on eligibility.
// With no allow filter (the live server's workers) eligibility is read
// from the epoch's lock-free backlog counters; a filter falls back to
// precise per-shard peeks, which the single-threaded simulator pays only
// as uncontended locks.
func (t *Themis) popCompiled(e *epoch, allow sched.AllowFunc) *sched.Request {
	var buf [64]bool
	elig := buf[:0]
	if e.assign.Len() > len(buf) {
		elig = make([]bool, 0, e.assign.Len())
	}
	n := 0
	for bi, blk := range e.assign.Blocks() {
		for j, job := range blk.Jobs {
			ok := false
			if allow == nil {
				ok = e.states[bi][j].backlogged()
			} else {
				ok = t.peek(job, allow)
			}
			if ok {
				n++
			}
			elig = append(elig, ok)
		}
	}
	for ; n > 0; n-- {
		b, j := e.assign.PickEligible(elig, e.assign.Mass(elig), t.redraws.next())
		if b < 0 {
			return nil
		}
		if r := t.popFromResolved(e.assign.Blocks()[b].Jobs[j], e.states[b][j], e.shards[b][j], allow); r != nil {
			return r
		}
		// A concurrent worker drained the job between peek and pop:
		// recondition without it and redraw.
		for _, sts := range e.states[:b] {
			j += len(sts)
		}
		elig[j] = false
	}
	return nil
}

// popAny serves the first-seen eligible job's oldest request — the
// fallback when no compiled segment matches a backlogged job, preserving
// the pre-striping behaviour of serving the oldest-created queue first
// (which is also what the degenerate FIFO policy relies on).
func (t *Themis) popAny(allow sched.AllowFunc) *sched.Request {
	for _, id := range *t.order.Load() {
		st := t.state(id)
		if allow == nil && !st.backlogged() {
			continue
		}
		if r := t.popFromResolved(id, st, &t.shards[shardIdx(id)], allow); r != nil {
			return r
		}
	}
	return nil
}

// PopBatch pops up to len(out) requests in one call: K independent
// draws against the current epoch (the live server draws one at a time).
// It fills out from the front and returns the count; fewer than
// len(out) (possibly zero) means the eligible backlog ran dry.
func (t *Themis) PopBatch(now time.Duration, allow sched.AllowFunc, out []*sched.Request) int {
	n := 0
	for n < len(out) {
		r := t.Pop(now, allow)
		if r == nil {
			break
		}
		out[n] = r
		n++
	}
	return n
}

// Pending implements sched.Scheduler.
func (t *Themis) Pending() int {
	return int(t.pending.Load())
}

// PendingOf returns the backlog of one job (for tests/inspection).
func (t *Themis) PendingOf(job string) int {
	sh := &t.shards[shardIdx(job)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.q.LenOf(job)
}

// SetStrict toggles the strict-shares ablation mode: tokens are drawn
// over the full assignment and a draw landing on a job without eligible
// work is forfeited (a wasted I/O cycle). This is the
// mandatory-assignment behaviour of prior bandwidth-reservation systems,
// kept as an ablation of the paper's key design choice. The production
// configuration is opportunistic (false).
func (t *Themis) SetStrict(on bool) { t.strict.Store(on) }

// Wasted returns the number of forfeited draws in strict mode.
func (t *Themis) Wasted() int64 { return t.wasted.Load() }

// Draws returns the number of tokens drawn since creation (every
// compiled-epoch draw of either stream, whether or not it yielded work).
func (t *Themis) Draws() uint64 { return t.draws.ctr.Load() + t.redraws.ctr.Load() }

// Backlogs returns the current queued-request count per job (all
// classes summed). Allocates; scrape/inspection path only.
func (t *Themis) Backlogs() map[string]int64 {
	out := make(map[string]int64)
	t.states.Range(func(k, v any) bool {
		st := v.(*jobState)
		var n int64
		for c := range st.cls {
			n += st.cls[c].Load()
		}
		if n > 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// SetDrawObserver installs fn to be called with the latency of every
// Pop that returns a request (nil uninstalls). Used by the operator
// metrics endpoint's draw-latency histogram; fn must be cheap and
// safe for concurrent calls from all workers.
func (t *Themis) SetDrawObserver(fn func(time.Duration)) {
	if fn == nil {
		t.drawObs.Store(nil)
		return
	}
	t.drawObs.Store(&fn)
}

// ServedBytes returns the cumulative serviced bytes per job since
// creation (request Cost at pop time). The λ share ledger diffs
// successive snapshots into per-window measured shares; the snapshot
// allocates, so it belongs on the controller's cold path, never per
// request.
func (t *Themis) ServedBytes() map[string]int64 {
	out := make(map[string]int64)
	t.states.Range(func(k, v any) bool {
		if n := v.(*jobState).bytes.Load(); n > 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// ServedBytesDelta drains the per-job serviced-byte deltas accumulated
// since the previous drain — touching only the jobs whose counters
// actually moved, so a λ roll at 100k known jobs with 1k active costs
// O(1k). Single consumer (the controller); a charge racing the drain is
// never lost: the dirty flag is cleared before the counter is read, so
// a concurrent charge either lands in this window's read or re-marks
// the job for the next one.
func (t *Themis) ServedBytesDelta() map[string]int64 {
	t.dirtyMu.Lock()
	jobs := t.dirtyJobs
	t.dirtyJobs = nil
	t.dirtyMu.Unlock()
	out := make(map[string]int64, len(jobs))
	for _, job := range jobs {
		st := t.state(job)
		st.dirty.Store(false)
		cum := st.bytes.Load()
		if d := cum - st.lastReported; d != 0 {
			out[job] = d
			st.lastReported = cum
		}
	}
	return out
}

// Served returns the number of requests served per job since creation.
func (t *Themis) Served() map[string]int64 {
	out := make(map[string]int64)
	t.states.Range(func(k, v any) bool {
		if n := v.(*jobState).served.Load(); n > 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// Share returns the current token share of a job (0 if absent). It
// reads the compiled share tree, which stays correct on delta-compiled
// epochs (whose assignments skip the job→segment index).
func (t *Themis) Share(job string) float64 {
	e := t.epoch.Load()
	if e == nil {
		return 0
	}
	return e.compiled.Share(job)
}

// String summarizes the scheduler state for debugging.
func (t *Themis) String() string {
	t.confMu.Lock()
	pol, jobs := t.pol, len(t.jobs)
	t.confMu.Unlock()
	return fmt.Sprintf("themis{policy=%s jobs=%d pending=%d}", pol, jobs, t.Pending())
}
