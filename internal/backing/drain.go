package backing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/sched"
)

// Drainer is the stage-out engine of one server: it harvests dirty
// chunks from the shard and submits them to the token scheduler as
// requests of a synthetic background job, so the sharing policy
// arbitrates stage-out bandwidth against foreground I/O exactly like
// any other contending job. The serving plane's workers execute the
// chunks (Task.Run) when the token draw selects the stage-out job.
type Drainer struct {
	self  string
	shard *fsys.Shard
	store Store
	job   policy.JobInfo

	// ChunkBytes caps one drain request's payload (default 1 MiB — the
	// same granularity as a foreground striped write, so the policy
	// interleaves the two at equal grain).
	ChunkBytes int64
	// BatchBytes caps how much dirty data one Pump harvests (default
	// 8 MiB): the engine keeps at most a bounded backlog inside the
	// scheduler, so a huge dirty set cannot crowd the queues.
	BatchBytes int64

	inFlight atomic.Int64
	chunks   atomic.Int64
	bytes    atomic.Int64
	errs     atomic.Int64

	// pumpMu makes one Pump atomic with respect to Dirty(): harvested
	// chunks are counted in-flight before the lock drops, so a
	// concurrent Flush can never observe the window where dirty ranges
	// have left the shard but are not yet accounted for.
	pumpMu sync.Mutex

	mu      sync.Mutex
	lastErr error
	// pendingDeletes are unlink tombstones whose backing delete failed;
	// retried every Pump (a dropped tombstone would resurrect the file
	// on the next restart's rehydrate).
	pendingDeletes []fsys.Tombstone
}

// NewDrainer builds a drain engine for the shard (owned by server self)
// writing back to store.
func NewDrainer(self string, shard *fsys.Shard, store Store) *Drainer {
	return &Drainer{
		self:       self,
		shard:      shard,
		store:      store,
		job:        policy.StageOutJob(self),
		ChunkBytes: 1 << 20,
		BatchBytes: 8 << 20,
	}
}

// Job returns the synthetic background job identity the drainer's
// requests carry.
func (d *Drainer) Job() policy.JobInfo { return d.job }

// Task is one scheduled stage-out unit, carried through the scheduler in
// Request.Tag. The worker that pops the request calls Run.
type Task struct {
	d     *Drainer
	chunk fsys.DirtyChunk
}

// Run stages the chunk out to the backing store. On failure the chunk's
// range is re-marked dirty so a later pump retries it. A chunk whose
// entry was unlinked — or unlinked and re-created — while it sat in the
// scheduler queue is detected by its creation generation and dropped,
// so stale queued data can never resurrect a removed file or leak old
// bytes into a new incarnation of the path.
func (t *Task) Run() error {
	d := t.d
	defer d.inFlight.Add(-1)
	c := t.chunk
	if d.shard.GenOf(c.Path) != c.Gen {
		return nil // entry gone or recreated; its own lifecycle handles staging
	}
	meta := FileMeta{
		Owner: d.self, Path: c.Path,
		IsDir: c.IsDir, Children: c.Children,
		Stripe: c.Stripe, Stripes: c.Stripes,
		StripeUnit: c.Unit, StripeSet: c.Set,
		LayoutGen: c.LayoutGen,
	}
	if err := d.store.WriteRange(meta, c.Off, c.Data); err != nil {
		d.errs.Add(1)
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
		if d.shard.GenOf(c.Path) == c.Gen {
			d.shard.MarkDirty(c.Path, c.Off, int64(len(c.Data)))
		}
		return err
	}
	if d.shard.GenOf(c.Path) != c.Gen {
		// The entry was unlinked, recreated, or replaced between the
		// check and the write: our write may have polluted the (possibly
		// new) object. Undo our own object — only our own; an unlink's
		// tombstone covers the other stripes, and another holder's fresh
		// object must survive — and re-mark any live incarnation
		// so a future pump restages it from scratch.
		_ = d.store.DeleteObject(d.self, c.Path, c.Stripe)
		d.shard.MarkDirtyAll(c.Path)
		return nil
	}
	d.chunks.Add(1)
	d.bytes.Add(int64(len(c.Data)))
	return nil
}

// Pump harvests up to BatchBytes of dirty data, propagates pending
// unlinks to the backing store (retrying earlier failures), and submits
// one scheduler request per chunk via push. It returns the number of
// requests submitted. now stamps the requests' arrival (the serving
// plane's clock domain).
func (d *Drainer) Pump(now time.Duration, push func(*sched.Request)) int {
	d.pumpMu.Lock()
	defer d.pumpMu.Unlock()
	d.mu.Lock()
	deletes := append(d.pendingDeletes, d.shard.TakeTombstones()...)
	d.pendingDeletes = nil
	d.mu.Unlock()
	for i, t := range deletes {
		// Delete only this server's own object: every stripe holder
		// processes the same unlink, and a path-wide delete could
		// destroy rows another server (or a newer incarnation of the
		// path) staged since.
		if err := d.store.DeleteObject(d.self, t.Path, t.Stripe); err != nil {
			d.errs.Add(1)
			d.mu.Lock()
			d.lastErr = err
			// Requeue this and every remaining tombstone for retry.
			d.pendingDeletes = append(d.pendingDeletes, deletes[i:]...)
			d.mu.Unlock()
			break
		}
		if d.shard.Exists(t.Path) {
			// The path was recreated before its tombstone drained: the
			// deleted key may have carried the new incarnation's staged
			// row, so restage it from scratch (this same pump's harvest
			// picks the re-mark up).
			d.shard.MarkDirtyAll(t.Path)
		}
	}
	chunks := d.shard.CollectDirty(d.BatchBytes, d.ChunkBytes)
	d.inFlight.Add(int64(len(chunks)))
	for _, c := range chunks {
		op := sched.OpWrite
		if c.IsDir {
			op = sched.OpMkdir // metadata class: rides the IOPS envelope
		}
		push(&sched.Request{
			Job:    d.job,
			Op:     op,
			Bytes:  int64(len(c.Data)),
			Arrive: now,
			Tag:    &Task{d: d, chunk: c},
		})
	}
	return len(chunks)
}

// InFlight returns the number of submitted-but-unexecuted chunks.
func (d *Drainer) InFlight() int64 { return d.inFlight.Load() }

// Dirty reports whether un-staged state remains (dirty ranges, changed
// directories, pending unlinks, or chunks still queued in the
// scheduler). It takes the pump lock, so a concurrent Pump's harvested
// chunks are always either still in the shard or already counted
// in-flight — a flush can never observe the gap between the two.
func (d *Drainer) Dirty() bool {
	d.pumpMu.Lock()
	defer d.pumpMu.Unlock()
	d.mu.Lock()
	pending := len(d.pendingDeletes) > 0
	d.mu.Unlock()
	return d.inFlight.Load() > 0 || pending || d.shard.HasDirty()
}

// Flush pumps and waits until the shard is fully staged out or the
// timeout passes. push and wake are the serving plane's scheduler
// injection and worker wake-up; wait polls because execution happens on
// the workers (through the policy, like all drain traffic — a flush
// forces completeness, not priority).
func (d *Drainer) Flush(now func() time.Duration, push func(*sched.Request), wake func(int), timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := d.Pump(now(), push)
		if n > 0 {
			wake(n)
		}
		if !d.Dirty() {
			return nil
		}
		if time.Now().After(deadline) {
			d.mu.Lock()
			err := d.lastErr
			d.mu.Unlock()
			if err != nil {
				return fmt.Errorf("backing: flush timed out; last error: %w", err)
			}
			return fmt.Errorf("backing: flush timed out with %d chunks in flight", d.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stats reports lifetime drain counters.
func (d *Drainer) Stats() (chunks, bytes, errs int64) {
	return d.chunks.Load(), d.bytes.Load(), d.errs.Load()
}

// LastErr returns the most recent stage-out error (nil if none).
func (d *Drainer) LastErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastErr
}
