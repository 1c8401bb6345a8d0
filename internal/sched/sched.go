// Package sched defines the I/O request scheduler interface shared by the
// discrete-event simulator and the live server, plus the three baseline
// schedulers the paper evaluates against: FIFO (production default), GIFT
// (BSIP + throttle-and-reward coupons) and TBF (classful token bucket with
// HTC and PSSB). The ThemisIO statistical-token scheduler itself lives in
// package core, built on the same interface — mirroring how the paper
// integrated the GIFT and TBF core algorithms into ThemisIO for the §5.4
// comparison.
package sched

import (
	"time"

	"themisio/internal/policy"
)

// Op is the I/O operation class of a request.
type Op int

// Operation classes. Data ops carry Bytes; metadata ops are charged a
// nominal cost (MetaCost) by capacity-aware schedulers.
const (
	OpRead Op = iota
	OpWrite
	OpOpen
	OpClose
	OpStat
	OpMkdir
	OpReaddir
	OpUnlink
	OpSeek
)

// String returns the POSIX-ish name of the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpStat:
		return "stat"
	case OpMkdir:
		return "mkdir"
	case OpReaddir:
		return "readdir"
	case OpUnlink:
		return "unlink"
	case OpSeek:
		return "lseek"
	}
	return "op?"
}

// IsData reports whether the op moves file data.
func (o Op) IsData() bool { return o == OpRead || o == OpWrite }

// MetaCost is the nominal byte-equivalent cost capacity-aware schedulers
// charge for a metadata operation, so that stat storms (the paper's
// iops_stat workload) still consume I/O cycles.
const MetaCost = 4 << 10

// Request is one I/O request as seen by a scheduler. The job metadata is
// embedded in every request by the client (§4.1), which is what lets the
// server enforce any policy without user-supplied profiles.
type Request struct {
	Job    policy.JobInfo
	Op     Op
	Bytes  int64
	Arrive time.Duration
	// Done, if non-nil, is invoked by the simulator (internal/bb) at the
	// virtual time the request completes: the simulated client processes
	// and the application traces (internal/apptrace) chain their next
	// request on it. The live server dispatches on Tag and never sets it.
	Done func(now time.Duration)
	// Tag carries plane-specific payload (e.g. the live server's decoded
	// message) through the scheduler untouched.
	Tag any
}

// Cost returns the byte-equivalent scheduling cost of the request.
func (r *Request) Cost() int64 {
	if r.Op.IsData() && r.Bytes > 0 {
		return r.Bytes
	}
	return MetaCost
}

// AllowFunc tells a scheduler which operation classes the serving plane
// can start right now (e.g. the write path is saturated but the read path
// has headroom). A nil AllowFunc allows everything. Policy schedulers
// treat a job whose head request is disallowed as ineligible for this
// draw; FIFO ignores the filter — its workers take requests strictly in
// order, which is exactly the head-of-line coupling the paper identifies.
type AllowFunc func(op Op) bool

// Scheduler reorders I/O requests according to a sharing policy. Push and
// Pop are called from the serving plane; SetJobs is called by the
// controller whenever the job table changes (heartbeat, expiry, λ-sync).
//
// Pop may return nil even when Pending() > 0: every job's head request
// may be disallowed by the filter, and GIFT and TBF additionally throttle
// jobs whose window budget or token bucket is exhausted, leaving capacity
// idle. That non-work-conserving throttling is precisely what ThemisIO's
// opportunity fairness removes.
type Scheduler interface {
	Name() string
	Push(r *Request)
	Pop(now time.Duration, allow AllowFunc) *Request
	Pending() int
	SetJobs(jobs []policy.JobInfo)
}

// NumClasses is the number of independent service classes (reads,
// writes, metadata).
const NumClasses = 3

// ClassOf buckets ops into the three service classes a worker pool can
// run independently: reads (0), writes (1), and metadata (2). Exported
// so the Themis scheduler's lock-free eligibility counters bucket
// exactly like the class-split queues underneath them.
func ClassOf(op Op) int {
	switch op {
	case OpRead:
		return 0
	case OpWrite:
		return 1
	}
	return 2
}

func classOf(op Op) int { return ClassOf(op) }

// queued is a request plus its global arrival sequence (for oldest-first
// selection across classes).
type queued struct {
	r   *Request
	seq uint64
}

// reqQueue is an allocation-friendly FIFO of queued requests.
type reqQueue struct {
	items []queued
	head  int
}

func (q *reqQueue) push(it queued) { q.items = append(q.items, it) }

func (q *reqQueue) pop() *Request {
	if q.head >= len(q.items) {
		return nil
	}
	r := q.items[q.head].r
	q.items[q.head] = queued{}
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}

func (q *reqQueue) peek() (queued, bool) {
	if q.head >= len(q.items) {
		return queued{}, false
	}
	return q.items[q.head], true
}

func (q *reqQueue) len() int { return len(q.items) - q.head }

// jobQueue holds one job's backlog, split by service class so that a
// saturated write path does not block the job's reads (the server's
// workers run transfer directions independently); arrival order is
// preserved within a class and respected across classes via sequence
// numbers.
type jobQueue struct {
	cls [3]reqQueue
}

func (jq *jobQueue) push(it queued) { jq.cls[classOf(it.r.Op)].push(it) }

func (jq *jobQueue) len() int {
	return jq.cls[0].len() + jq.cls[1].len() + jq.cls[2].len()
}

// peekAllowed returns the oldest head among classes the filter allows.
func (jq *jobQueue) peekAllowed(allow AllowFunc) (*Request, int, bool) {
	best := -1
	var bestSeq uint64
	for c := range jq.cls {
		it, ok := jq.cls[c].peek()
		if !ok {
			continue
		}
		if allow != nil && !allow(it.r.Op) {
			continue
		}
		if best == -1 || it.seq < bestSeq {
			best = c
			bestSeq = it.seq
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	it, _ := jq.cls[best].peek()
	return it.r, best, true
}

// JobQueues maintains one class-split FIFO per job with a deterministic
// iteration order (insertion order). It is the communicator's queue
// structure from §4.1: "I/O requests are grouped into queues based on the
// fair sharing policy ... identified by job ids". Exported so the Themis
// scheduler in package core builds on the same machinery as the
// baselines.
type JobQueues struct {
	byJob map[string]*jobQueue
	order []string
	total int
	seq   uint64
}

// NewJobQueues returns an empty queue set.
func NewJobQueues() *JobQueues {
	return &JobQueues{byJob: make(map[string]*jobQueue)}
}

// Push enqueues the request on its job's queue.
func (jq *JobQueues) Push(r *Request) {
	id := r.Job.JobID
	q, ok := jq.byJob[id]
	if !ok {
		q = &jobQueue{}
		jq.byJob[id] = q
		jq.order = append(jq.order, id)
	}
	jq.seq++
	q.push(queued{r: r, seq: jq.seq})
	jq.total++
}

// PeekFrom returns the job's oldest request among allowed classes.
func (jq *JobQueues) PeekFrom(job string, allow AllowFunc) *Request {
	q, ok := jq.byJob[job]
	if !ok {
		return nil
	}
	r, _, ok := q.peekAllowed(allow)
	if !ok {
		return nil
	}
	return r
}

// PopFrom removes and returns the job's oldest request among allowed
// classes, or nil.
func (jq *JobQueues) PopFrom(job string, allow AllowFunc) *Request {
	q, ok := jq.byJob[job]
	if !ok {
		return nil
	}
	_, cls, ok := q.peekAllowed(allow)
	if !ok {
		return nil
	}
	r := q.cls[cls].pop()
	if r != nil {
		jq.total--
	}
	return r
}

// LenOf returns the job's backlog.
func (jq *JobQueues) LenOf(job string) int {
	q, ok := jq.byJob[job]
	if !ok {
		return 0
	}
	return q.len()
}

// Pending returns the total backlog.
func (jq *JobQueues) Pending() int { return jq.total }

// Order returns the job iteration order (insertion order). The returned
// slice is owned by the queue set; callers must not mutate it.
func (jq *JobQueues) Order() []string { return jq.order }

// Backlogged returns the jobs with non-empty queues, in insertion order.
func (jq *JobQueues) Backlogged() []string {
	var out []string
	for _, id := range jq.order {
		if jq.byJob[id].len() > 0 {
			out = append(out, id)
		}
	}
	return out
}
