package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/client"
	"themisio/internal/policy"
	"themisio/internal/server"
)

// runResult is what one measured phase of a workload produced.
type runResult struct {
	write, read   classStat
	shareFidelity float64
	layer         map[string]float64 // the workload's own per-layer diagnostics
}

// workload is one closed-loop traffic mix against its own in-process fabric.
// Every stream blocks on its call, as an HPC rank does.
type workload interface {
	params() map[string]any
	setup(seed int64, chk *checker) error // boot, converge, dial, preload: timed as setup_s
	teardown()
	warmup() time.Duration
	run(d time.Duration, tr *tracer) runResult
	fabric() *fabric
	jobs() []policy.JobInfo
	payload() int // bytes per data call; 0 for a workload without data
	// setStreams changes how many streams (per job) the next run uses and
	// returns the old number; the traced run uses one to time a call that
	// waits for nothing.
	setStreams(n int) int
}

var workloadNames = []string{"ckpt_stream", "small_rw", "shared_fair", "meta_churn"}

// newWorkload returns the named workload at full size, or at about 1/200 of
// it for the smoke test.
func newWorkload(name string, small bool) (workload, error) {
	pick := func(full, tiny int) int {
		if small {
			return tiny
		}
		return full
	}
	base := common{streams: 8, js: []policy.JobInfo{lone}, warm: 1500 * time.Millisecond, tiny: small}
	switch name {
	case "ckpt_stream":
		base.streams = 4 // of 32 MiB in flight each: eight would fill the two stores
		return &ckptStream{common: base, fileBytes: pick(32<<20, 2<<20), callBytes: 1 << 20}, nil
	case "small_rw":
		return &smallRW{common: base, fileBytes: pick(32<<20, 1<<20), opBytes: 4 << 10, chunkOps: pick(1024, 32)}, nil
	case "shared_fair":
		// Each run ramps up by itself, so there is no separate warm-up.
		base.streams, base.js, base.warm = pick(8, 2), []policy.JobInfo{jobA, jobB}, 0
		return &sharedFair{common: base, opBytes: 64 << 10, rotate: pick(128, 16), readBlocks: pick(64, 16),
			ramp: time.Duration(pick(1000, 200)) * time.Millisecond, settle: time.Duration(pick(500, 100)) * time.Millisecond}, nil
	case "meta_churn":
		return &metaChurn{common: base, cycleFiles: pick(512, 16), dirsPerStream: 1}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// common is what every workload has: what it was built with (the first
// four fields) and what a set-up gives it.
type common struct {
	streams int              // concurrent streams (per job)
	js      []policy.JobInfo // the jobs it runs as
	warm    time.Duration    // warm-up before the measured phase
	tiny    bool             // the smoke test's scale: small stores and a short λ, so boots and closes are quick

	f       *fabric
	clients []*client.Client
	chk     *checker
	seed    int64
}

func (c *common) fabric() *fabric        { return c.f }
func (c *common) jobs() []policy.JobInfo { return c.js }
func (c *common) warmup() time.Duration  { return c.warm }
func (c *common) setStreams(n int) (old int) {
	old, c.streams = c.streams, n
	return old
}

// boot starts the fabric; what it leaves half-built on an error, teardown
// removes.
func (c *common) boot(seed int64, chk *checker, servers int, cfg server.Config) (err error) {
	c.chk, c.seed = chk, seed
	if c.tiny {
		cfg.Capacity, cfg.Lambda = 32<<20, 20*time.Millisecond
	}
	c.f, err = bootFabric(servers, cfg)
	return err
}

// dial connects one client with one connection per server.
func (c *common) dial(job policy.JobInfo, stripes int, unit int64) (*client.Client, error) {
	cl, err := client.DialOpts(job, c.f.addrs, client.Options{Stripes: stripes, StripeUnit: unit, ConnsPerServer: 1})
	if err == nil {
		c.clients = append(c.clients, cl)
	}
	return cl, err
}

// teardown closes the clients and the fabric and lets go of them, so that
// the servers' stores can be collected before the next set-up.
func (c *common) teardown() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.f != nil {
		c.f.close()
	}
	c.f, c.clients = nil, nil
}

// lone is the job identity of the single-job workloads.
var lone = policy.JobInfo{JobID: "bench", UserID: "u1", GroupID: "g1", Nodes: 1}

// twoServers is the fabric of the single-job workloads. The short λ only
// shortens the join (a joiner announces itself on its first λ tick).
var twoServers = server.Config{Lambda: 100 * time.Millisecond}

// servedBytes is the bytes the fabric's schedulers have served each job.
func (c *common) servedBytes() map[string]int64 {
	out := map[string]int64{}
	for _, s := range c.f.servers {
		for job, b := range s.Scheduler().ServedBytes() {
			out[job] += b
		}
	}
	return out
}

// fidelity is 1 − the largest distance, over the workload's jobs, between the
// share of the bytes served since before and the share the policy compiles
// for the job. A lone job's is 1.
func (c *common) fidelity(before map[string]int64) float64 {
	want, err := policy.Shares(c.js, policy.SizeFair)
	if err != nil {
		c.chk.fail("compile shares: %v", err)
		return 0
	}
	after := c.servedBytes()
	var total float64
	for job, b := range after {
		total += float64(b - before[job])
	}
	if total == 0 {
		return 1 // a run that moved no bytes had nothing to share
	}
	residual := 0.0
	for _, j := range c.js {
		got := float64(after[j.JobID]-before[j.JobID]) / total
		residual = max(residual, math.Abs(got-want[j.JobID]))
	}
	return 1 - residual
}

// parallel runs fn as n concurrent streams and waits for all of them.
func parallel(n int, fn func(s int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s)
		}()
	}
	wg.Wait()
}

// ---------------------------------------------------------------- ckpt_stream

// ckptStream writes a checkpoint file in large calls, reads it back comparing
// every byte, and unlinks it, file after file. Bytes moved dominate: loopback
// copies, the scatter-gather codec, leases, fsys appends, storage copies.
type ckptStream struct {
	common
	fileBytes, callBytes int
	c                    *client.Client
	pattern              []byte // file i is pattern[shift(i):][:fileBytes]
	next                 atomic.Int64
}

func (w *ckptStream) params() map[string]any {
	return map[string]any{"servers": 2, "stripes": 2, "stripe_unit": w.callBytes, "file_bytes": w.fileBytes,
		"call_bytes": w.callBytes, "streams": w.streams, "conns_per_server": 1, "chunk": "one file"}
}
func (w *ckptStream) payload() int { return w.callBytes }

func (w *ckptStream) setup(seed int64, chk *checker) (err error) {
	if err = w.boot(seed, chk, 2, twoServers); err != nil {
		return err
	}
	if w.c, err = w.dial(lone, 2, int64(w.callBytes)); err != nil {
		return err
	}
	w.pattern = make([]byte, w.fileBytes+w.callBytes)
	newRNG(seed, 0).fill(w.pattern)
	w.next.Store(0)
	return nil
}

func (w *ckptStream) run(d time.Duration, tr *tracer) runResult {
	wl, rl := make([]*opLog, w.streams), make([]*opLog, w.streams)
	before := w.servedBytes()
	deadline := time.Now().Add(d)
	parallel(w.streams, func(s int) {
		wl[s], rl[s] = newOpLog("client.write", tr), newOpLog("client.read", tr)
		buf := make([]byte, w.callBytes)
		for time.Now().Before(deadline) {
			w.oneFile(wl[s], rl[s], buf)
		}
	})
	return runResult{write: summarise(wl), read: summarise(rl), shareFidelity: w.fidelity(before)}
}

func (w *ckptStream) oneFile(wl, rl *opLog, buf []byte) {
	i := int(w.next.Add(1))
	path := fmt.Sprintf("/ckpt-%06d", i)
	shift := i * 4099 % w.callBytes // every file carries different bytes at every offset
	want := w.pattern[shift : shift+w.fileBytes]
	f, err := w.c.Open(path, true)
	if !w.chk.call("open "+path, err) {
		return
	}
	for off := 0; off < w.fileBytes; off += w.callBytes {
		t := time.Now()
		n, err := f.Write(want[off : off+w.callBytes])
		wl.add(t, time.Since(t))
		if w.chk.call("write "+path, err) {
			w.chk.sameInt("write length "+path, int64(n), int64(w.callBytes))
		}
	}
	wl.endChunk()
	_, err = f.Seek(0, io.SeekStart)
	w.chk.call("seek "+path, err)
	for off := 0; off < w.fileBytes; off += w.callBytes {
		t := time.Now()
		n, err := f.Read(buf)
		rl.add(t, time.Since(t))
		if w.chk.call("read "+path, err) {
			w.chk.sameBytes("read "+path, buf[:n], want[off:off+w.callBytes])
		}
	}
	rl.endChunk()
	w.chk.call("close "+path, f.Close())
	size, _, err := w.c.Stat(path)
	if w.chk.call("stat "+path, err) {
		w.chk.sameInt("size "+path, size, int64(w.fileBytes))
	}
	w.chk.call("unlink "+path, w.c.Unlink(path))
}

// ------------------------------------------------------------------- small_rw

// smallRW issues small random reads of a preloaded file, then small appends,
// from two streams. Per-request cost dominates: header codec, the MuxConn
// round trip, the token draw, the worker hand-off, goroutine wake-ups.
type smallRW struct {
	common
	fileBytes, opBytes, chunkOps int
	c                            *client.Client
	data                         []byte
	offsets                      []*rng       // per stream: the read offsets and read-back offsets
	gen                          atomic.Int64 // numbers the append files
}

// rotateChunks is how many chunks of appends go into one file before it is
// closed, checked, unlinked and replaced. Without rotation the appends fill
// the servers' 256 MiB stores and fail with "storage: out of space".
const rotateChunks = 4

func (w *smallRW) params() map[string]any {
	return map[string]any{"servers": 2, "stripes": 2, "stripe_unit": 64 << 10, "preload_bytes": w.fileBytes,
		"op_bytes": w.opBytes, "streams": w.streams, "conns_per_server": 1, "chunk_ops": w.chunkOps,
		"rotate_every_ops": rotateChunks * w.chunkOps, "phases": fmt.Sprintf("%d alternating slices of reads and appends", slices)}
}
func (w *smallRW) payload() int { return w.opBytes }

func (w *smallRW) setup(seed int64, chk *checker) (err error) {
	if err = w.boot(seed, chk, 2, twoServers); err != nil {
		return err
	}
	if w.c, err = w.dial(lone, 2, 64<<10); err != nil {
		return err
	}
	w.data = make([]byte, w.fileBytes)
	newRNG(seed, 0).fill(w.data)
	w.offsets = make([]*rng, w.streams)
	for s := range w.offsets {
		w.offsets[s] = newRNG(seed, 100+s)
	}
	f, err := w.c.Open("/preload", true)
	if err != nil {
		return err
	}
	for off := 0; off < len(w.data); off += 1 << 20 {
		if _, err := f.Write(w.data[off:min(off+1<<20, len(w.data))]); err != nil {
			return err
		}
	}
	return f.Close()
}

// slices is how many alternating read and append slices a run is cut into, so
// that both classes sample the whole run and a slow stretch of the machine
// does not land on one of them alone.
const slices = 8

func (w *smallRW) run(d time.Duration, tr *tracer) runResult {
	before := w.servedBytes()
	rl, wl := make([]*opLog, w.streams), make([]*opLog, w.streams)
	for s := range rl {
		rl[s], wl[s] = newOpLog("client.read", tr), newOpLog("client.write", tr)
	}
	for i := 0; i < slices; i++ {
		deadline := time.Now().Add(d / slices)
		parallel(w.streams, func(s int) {
			if i%2 == 0 {
				w.readStream(s, rl[s], deadline)
			} else {
				w.appendStream(s, wl[s], deadline)
			}
		})
	}
	return runResult{read: summarise(rl), write: summarise(wl), shareFidelity: w.fidelity(before)}
}

func (w *smallRW) readStream(s int, l *opLog, deadline time.Time) {
	f, err := w.c.Open("/preload", false)
	if !w.chk.call("open /preload", err) {
		return
	}
	r := w.offsets[s]
	buf := make([]byte, w.opBytes)
	blocks := w.fileBytes / w.opBytes
	for time.Now().Before(deadline) {
		for i := 0; i < w.chunkOps; i++ {
			off := r.intn(blocks) * w.opBytes
			if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
				w.chk.call("seek /preload", err)
				continue
			}
			t := time.Now()
			n, err := f.Read(buf)
			l.add(t, time.Since(t))
			if w.chk.call("read /preload", err) {
				w.chk.sameBytes("read /preload", buf[:n], w.data[off:off+w.opBytes])
			}
		}
		l.endChunk()
	}
	w.chk.call("close /preload", f.Close())
}

func (w *smallRW) appendStream(s int, l *opLog, deadline time.Time) {
	r := w.offsets[s]
	buf := make([]byte, 16*w.opBytes)
	for time.Now().Before(deadline) {
		path := fmt.Sprintf("/append-%d-%d", s, w.gen.Add(1))
		f, err := w.c.Open(path, true)
		if !w.chk.call("open "+path, err) {
			return
		}
		// The file repeats the preload data, so any block of it can be
		// checked against the buffer already in memory.
		ops := 0
		for c := 0; c < rotateChunks && time.Now().Before(deadline); c++ {
			for i := 0; i < w.chunkOps; i++ {
				off := ops * w.opBytes % w.fileBytes
				t := time.Now()
				n, err := f.Write(w.data[off : off+w.opBytes])
				l.add(t, time.Since(t))
				if w.chk.call("append "+path, err) {
					w.chk.sameInt("append length "+path, int64(n), int64(w.opBytes))
				}
				ops++
			}
			l.endChunk()
		}
		size, _, err := w.c.Stat(path)
		if w.chk.call("stat "+path, err) {
			w.chk.sameInt("size "+path, size, int64(ops*w.opBytes))
		}
		// Read one run of blocks back: a size alone would pass with the
		// right number of wrong bytes.
		span := min(len(buf), ops*w.opBytes)
		off := r.intn(ops*w.opBytes-span+1) / w.opBytes * w.opBytes
		_, err = f.Seek(int64(off), io.SeekStart)
		w.chk.call("seek "+path, err)
		n, err := f.Read(buf[:span])
		if w.chk.call("read back "+path, err) {
			w.chk.sameBytes("read back "+path, buf[:n], wrapped(w.data, off, span))
		}
		w.chk.call("close "+path, f.Close())
		w.chk.call("unlink "+path, w.c.Unlink(path))
	}
}

// wrapped returns n bytes of data starting at off, wrapping at its end.
func wrapped(data []byte, off, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		i += copy(out[i:], data[(off+i)%len(data):])
	}
	return out
}

// ---------------------------------------------------------------- shared_fair

// sharedFair is the paper's experiment: two jobs of unequal size keep one
// server saturated, and the scheduler must serve them 3:1; then the small job
// goes idle and the large one must get the whole server. The emulated device
// (OpDelay) makes the worker pool the bottleneck, not the CPU, so both queues
// stay backlogged. It is the only workload where the token draw decides the
// outcome.
type sharedFair struct {
	common
	opBytes, rotate, readBlocks int
	ramp, settle                time.Duration
	a, b                        *client.Client
	data                        []byte // one read file's worth of pattern
}

var (
	jobA = policy.JobInfo{JobID: "job-a", UserID: "ua", GroupID: "g1", Nodes: 3}
	jobB = policy.JobInfo{JobID: "job-b", UserID: "ub", GroupID: "g1", Nodes: 1}
)

func (w *sharedFair) params() map[string]any {
	return map[string]any{"servers": 1, "policy": "size-fair", "workers": 2, "op_delay_us": 500, "lambda_ms": 500,
		"job_a_nodes": jobA.Nodes, "job_b_nodes": jobB.Nodes, "streams_per_job": w.streams, "op_bytes": w.opBytes,
		"rotate_every_ops": w.rotate, "conns_per_server": 1, "ramp_s": w.ramp.Seconds(), "settle_s": w.settle.Seconds(),
		"windows": "both jobs write for 0.6 of the time; after the settle job-a alone reads for 0.4 of it"}
}
func (w *sharedFair) payload() int { return w.opBytes }

func (w *sharedFair) setup(seed int64, chk *checker) (err error) {
	err = w.boot(seed, chk, 1, server.Config{Policy: policy.SizeFair, Workers: 2, OpDelay: 500 * time.Microsecond})
	if err != nil {
		return err
	}
	if w.a, err = w.dial(jobA, 1, 0); err != nil {
		return err
	}
	if w.b, err = w.dial(jobB, 1, 0); err != nil {
		return err
	}
	// job-a reads these back once job-b has gone idle.
	w.data = make([]byte, w.readBlocks*w.opBytes)
	newRNG(seed, 0).fill(w.data)
	for s := 0; s < w.streams; s++ {
		f, err := w.a.Open(fmt.Sprintf("/a-read-%d", s), true)
		if err != nil {
			return err
		}
		if _, err := f.Write(w.data); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// stamp is one completed call: when it ended and how long it took.
type stamp struct {
	end time.Time
	dur time.Duration
}

func (w *sharedFair) run(d time.Duration, tr *tracer) runResult {
	var (
		stopWrites, stopAll atomic.Bool
		wg                  sync.WaitGroup
		sched               = w.f.servers[0].Scheduler()
		writes              = make([][]stamp, 2*w.streams)
		reads               = make([][]stamp, w.streams)
	)
	for s := 0; s < 2*w.streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s < w.streams {
				writes[s] = w.writeStream(w.a, "a", s, tr, &stopWrites)
				reads[s] = w.readStream(s, tr, &stopAll)
			} else {
				writes[s] = w.writeStream(w.b, "b", s-w.streams, tr, &stopWrites)
			}
		}()
	}

	// Shared window: both jobs backlogged. Shares are the schedulers' served
	// bytes over the window; the backlog samples prove both queues stayed
	// non-empty, without which a share proves nothing about the policy.
	time.Sleep(w.ramp)
	t0, before := time.Now(), w.servedBytes()
	backlogMin := map[string]int{jobA.JobID: math.MaxInt, jobB.JobID: math.MaxInt}
	for end := t0.Add(d * 6 / 10); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		for job := range backlogMin {
			backlogMin[job] = min(backlogMin[job], sched.PendingOf(job))
		}
	}
	t1, fidelity := time.Now(), w.fidelity(before)
	reports, err := w.a.ShareReports()
	w.chk.call("share reports", err)
	stopWrites.Store(true)

	// Solo window: job-b is still registered (its client heartbeats) but has
	// no demand, so opportunity fairness must hand its cycles to job-a.
	time.Sleep(w.settle)
	t2 := time.Now()
	time.Sleep(d * 4 / 10)
	t3 := time.Now()
	stopAll.Store(true)
	wg.Wait()

	ledger := 0.0
	for _, rep := range reports {
		for _, sh := range rep.Shares {
			if sh.Kind == "job" {
				ledger = max(ledger, math.Abs(sh.Residual()))
			}
		}
	}
	res := runResult{
		write:         window(writes, t0, t1),
		read:          window(reads, t2, t3),
		shareFidelity: fidelity,
		layer: map[string]float64{
			"core.backlog_min":            float64(min(backlogMin[jobA.JobID], backlogMin[jobB.JobID])),
			"metrics.ledger_residual_max": ledger,
		},
	}
	res.layer["core.idle_reclaim_ratio"] = ratio(res.read.Rate, res.write.Rate)
	return res
}

// window summarises the calls that ended inside [from, to): their rate over
// the window and their latencies.
func window(streams [][]stamp, from, to time.Time) classStat {
	l := &opLog{}
	for _, st := range streams {
		for _, c := range st {
			if !c.end.Before(from) && c.end.Before(to) {
				l.lat = append(l.lat, int64(c.dur))
			}
		}
	}
	l.rates = []float64{ratio(float64(len(l.lat)), to.Sub(from).Seconds())}
	return summarise([]*opLog{l})
}

func (w *sharedFair) writeStream(c *client.Client, job string, s int, tr *tracer, stop *atomic.Bool) []stamp {
	var out []stamp
	block := w.data[s*w.opBytes%len(w.data):][:w.opBytes]
	for gen := 0; !stop.Load(); gen++ {
		path := fmt.Sprintf("/%s-write-%d-%d", job, s, gen)
		f, err := c.Open(path, true)
		if !w.chk.call("open "+path, err) {
			return out
		}
		ops := 0
		for ; ops < w.rotate && !stop.Load(); ops++ {
			t := time.Now()
			n, err := f.Write(block)
			d := time.Since(t)
			out = append(out, stamp{t.Add(d), d})
			if tr != nil {
				tr.span("client.write", "", t, d)
			}
			if w.chk.call("write "+path, err) {
				w.chk.sameInt("write length "+path, int64(n), int64(w.opBytes))
			}
		}
		w.chk.call("close "+path, f.Close())
		size, _, err := c.Stat(path)
		if w.chk.call("stat "+path, err) {
			w.chk.sameInt("size "+path, size, int64(ops*w.opBytes))
		}
		w.chk.call("unlink "+path, c.Unlink(path))
	}
	return out
}

func (w *sharedFair) readStream(s int, tr *tracer, stop *atomic.Bool) []stamp {
	var out []stamp
	path := fmt.Sprintf("/a-read-%d", s)
	f, err := w.a.Open(path, false)
	if !w.chk.call("open "+path, err) {
		return out
	}
	r := newRNG(w.seed, 300+s)
	buf := make([]byte, w.opBytes)
	for !stop.Load() {
		off := r.intn(w.readBlocks) * w.opBytes
		if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
			w.chk.call("seek "+path, err)
			continue
		}
		t := time.Now()
		n, err := f.Read(buf)
		d := time.Since(t)
		out = append(out, stamp{t.Add(d), d})
		if tr != nil {
			tr.span("client.read", "", t, d)
		}
		if w.chk.call("read "+path, err) {
			w.chk.sameBytes("read "+path, buf[:n], w.data[off:off+w.opBytes])
		}
	}
	w.chk.call("close "+path, f.Close())
	return out
}

// ----------------------------------------------------------------- meta_churn

// metaChurn creates, stats, lists and unlinks empty files. The same client,
// transport, core and fsys stack used differently: no payload and no storage,
// the metadata scheduling class, entry maps and ring placement.
type metaChurn struct {
	common
	cycleFiles, dirsPerStream int
	c                         *client.Client
	cycles                    []int // per stream, so a stream's names depend on the seed alone
}

func (w *metaChurn) params() map[string]any {
	return map[string]any{"servers": 2, "stripes": 1, "streams": w.streams, "conns_per_server": 1,
		"dirs": w.streams * w.dirsPerStream, "files_per_cycle": w.cycleFiles,
		"chunk": "one stream's cycle: create all, stat all, list its dirs, unlink all"}
}
func (w *metaChurn) payload() int { return 0 }

func (w *metaChurn) setup(seed int64, chk *checker) (err error) {
	if err = w.boot(seed, chk, 2, twoServers); err != nil {
		return err
	}
	if w.c, err = w.dial(lone, 1, 0); err != nil {
		return err
	}
	for d := 0; d < w.streams*w.dirsPerStream; d++ {
		if err := w.c.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			return err
		}
	}
	w.cycles = make([]int, w.streams)
	return nil
}

func (w *metaChurn) run(d time.Duration, tr *tracer) runResult {
	create, stat, unlink := make([]*opLog, w.streams), make([]*opLog, w.streams), make([]*opLog, w.streams)
	mutate := make([]*opLog, w.streams) // creates and unlinks per second, one sample per cycle
	before := w.servedBytes()
	deadline := time.Now().Add(d)
	parallel(w.streams, func(s int) {
		create[s], stat[s], unlink[s] = newOpLog("client.create", tr), newOpLog("client.stat", tr), newOpLog("client.unlink", tr)
		mutate[s] = &opLog{}
		for time.Now().Before(deadline) {
			w.oneCycle(s, create[s], stat[s], unlink[s])
			c, u := create[s], unlink[s]
			mutate[s].rates = append(mutate[s].rates, ratio(float64(c.n+u.n), (c.busy+u.busy).Seconds()))
			create[s].endChunk()
			stat[s].endChunk()
			unlink[s].endChunk()
		}
	})
	res := runResult{write: summarise(create), read: summarise(stat), shareFidelity: w.fidelity(before)}
	m := summarise(mutate)
	res.write.RateQ1, res.write.Rate, res.write.RateQ3 = m.RateQ1, m.Rate, m.RateQ3
	res.layer = map[string]float64{"client.unlink_p50_us": summarise(unlink).P50us}
	return res
}

func (w *metaChurn) oneCycle(s int, create, stat, unlink *opLog) {
	r := newRNG(w.seed, 400+s+w.streams*w.cycles[s])
	w.cycles[s]++
	// Seeded names, so the ring places each cycle's files differently.
	paths := make([]string, w.cycleFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d/f%x", s*w.dirsPerStream+i%w.dirsPerStream, r.next())
	}
	for _, p := range paths {
		t := time.Now()
		f, err := w.c.Open(p, true)
		if err == nil {
			err = f.Close()
		}
		create.add(t, time.Since(t))
		w.chk.call("create "+p, err)
	}
	for _, p := range paths {
		t := time.Now()
		size, isDir, err := w.c.Stat(p)
		stat.add(t, time.Since(t))
		if w.chk.call("stat "+p, err) {
			w.chk.sameInt("size "+p, size, 0)
			if isDir {
				w.chk.fail("stat %s: a file reads as a directory", p)
			}
		}
	}
	for d := 0; d < w.dirsPerStream; d++ {
		dir := fmt.Sprintf("/d%d", s*w.dirsPerStream+d)
		names, err := w.c.Readdir(dir)
		if w.chk.call("readdir "+dir, err) {
			w.chk.sameInt("entries of "+dir, int64(len(names)), int64((w.cycleFiles-d+w.dirsPerStream-1)/w.dirsPerStream))
		}
	}
	for _, p := range paths {
		t := time.Now()
		err := w.c.Unlink(p)
		unlink.add(t, time.Since(t))
		w.chk.call("unlink "+p, err)
	}
	for i := 0; i < len(paths); i += max(1, len(paths)/8) {
		w.chk.attempted.Add(1)
		if _, _, err := w.c.Stat(paths[i]); !errors.Is(err, client.ErrNotExist) {
			w.chk.fail("stat %s after unlink: %v, want ErrNotExist", paths[i], err)
		}
	}
}
