package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"themisio/internal/chash"
	"themisio/internal/core"
	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/storage"
	"themisio/internal/transport"
)

// span is one timed call into a layer. Spans of one request share Req; Parent
// names the rung that contains this one.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Parent  string `json:"parent,omitempty"`
	Req     int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. The spans are recorded
// from the benchmark's own files, around its calls into each layer; spans
// inside internal/ are a later change.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  map[string]int64 // next request id per span name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18), reqs: map[string]int64{}}
}

// span stores one timed call; a client call has no parent.
func (t *tracer) span(name, parent string, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.reqs[name]++
	t.spans = append(t.spans, span{name, int64(start.Sub(t.t0)), int64(d), parent, t.reqs[name]})
	t.mu.Unlock()
}

// rung times fn and returns the median nanoseconds per call. Calls too short
// for a clock reading of their own are timed batch calls at a time; each
// timing becomes a span under parent.
func (t *tracer) rung(name, parent string, timings, batch int, fn func()) float64 {
	per := make([]float64, 0, timings)
	for i := 0; i < timings; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		d := time.Since(start)
		t.span(name, parent, start, d)
		per = append(per, float64(d)/float64(batch))
	}
	return median(per)
}

// procSample is the process's CPU time and allocation counters at one moment.
// Client and servers share the process, so these cover both.
type procSample struct {
	user, sys time.Duration
	mem       runtime.MemStats
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.user = time.Duration(ru.Utime.Nano())
		p.sys = time.Duration(ru.Stime.Nano())
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// tracedRun produces the per-layer metrics: a short untraced run bracketed by
// the modules' own counters, the same run again with every client call
// recorded as a span, and then the ladder of rungs below the client call.
func tracedRun(w workload, chk *checker, o options, d time.Duration, outDir string, rec *record) (map[string]float64, error) {
	f := w.fabric()
	layer := map[string]float64{}
	short := d / 4

	// Counters the modules already keep, read before and after.
	vec0, _, flat0 := transport.IOStats()
	gets0, miss0 := transport.LeaseStats()
	served0 := f.served()
	var draws0 uint64
	var wasted0 int64
	for _, s := range f.servers {
		draws0 += s.Scheduler().Draws()
		wasted0 += s.Scheduler().Wasted()
	}
	att0, p0, t0 := chk.attempted.Load(), sampleProc(), time.Now()
	plain := w.run(short, nil)
	elapsed, p1, calls := time.Since(t0), sampleProc(), float64(chk.attempted.Load()-att0)
	vec1, _, flat1 := transport.IOStats()
	gets1, miss1 := transport.LeaseStats()
	served := float64(f.served() - served0)
	var draws, wasted float64
	for _, s := range f.servers {
		draws += float64(s.Scheduler().Draws())
		wasted += float64(s.Scheduler().Wasted())
	}
	draws -= float64(draws0)
	wasted -= float64(wasted0)

	ops := float64(plain.write.Calls + plain.read.Calls)
	cpu := (p1.user - p0.user) + (p1.sys - p0.sys)
	layer["client.rpcs_per_op"] = ratio(served, calls)
	layer["server.served_per_s"] = ratio(served, elapsed.Seconds())
	layer["transport.vectored_frame_ratio"] = ratio(float64(vec1-vec0), float64(vec1-vec0+flat1-flat0))
	layer["transport.lease_miss_ratio"] = ratio(float64(miss1-miss0), float64(gets1-gets0))
	layer["core.draws_per_served"] = ratio(draws, served)
	layer["core.wasted_draws"] = wasted
	layer["proc.cpu_us_per_op"] = ratio(float64(cpu.Microseconds()), ops)
	layer["proc.sys_cpu_ratio"] = ratio(float64(p1.sys-p0.sys), float64(cpu))
	layer["proc.allocs_per_op"] = ratio(float64(p1.mem.Mallocs-p0.mem.Mallocs), ops)
	layer["proc.alloc_bytes_per_op"] = ratio(float64(p1.mem.TotalAlloc-p0.mem.TotalAlloc), ops)
	layer["proc.gc_pause_ms"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6

	tr := newTracer()
	traced := w.run(short, tr)
	rec.Write, rec.Read = traced.write, traced.read
	layer["proc.trace_overhead_pct"] = 100 * (1 - ratio(traced.write.Rate+traced.read.Rate, plain.write.Rate+plain.read.Rate))
	// The same call from a single stream, which waits for nothing: the
	// difference is the time a call of the loaded run spent queued.
	streams := w.setStreams(1)
	alone := w.run(min(short, 2*time.Second), nil)
	w.setStreams(streams)
	layer["client.write_us"], layer["client.read_us"] = alone.write.P50us, alone.read.P50us
	layer["client.write_wait_us"] = max(0, traced.write.P50us-alone.write.P50us)
	layer["client.read_wait_us"] = max(0, traced.read.P50us-alone.read.P50us)
	layer["client.write_p99_us"], layer["client.read_p99_us"] = traced.write.P99us, traced.read.P99us
	for _, name := range []string{"client.unlink_p50_us", "core.backlog_min", "core.idle_reclaim_ratio", "metrics.ledger_residual_max"} {
		layer[name] = traced.layer[name] // zero on the workloads that have no such thing
	}

	if err := climb(w, chk, tr, o.small, layer); err != nil {
		return nil, err
	}
	table := selfTimes(layer)
	fmt.Fprint(os.Stderr, table.text)
	return layer, writeTrace(outDir, o, tr, table.rows)
}

// ladderJob is the identity the raw-frame rungs send under.
var ladderJob = policy.JobInfo{JobID: "ladder", UserID: "u1", GroupID: "g1", Nodes: 1}

// climb measures the rungs below the client call at the workload's payload
// size and call kinds: write and read frames for a data workload, create and
// stat for one without payload. The rungs are nested by construction —
// storage inside fsys; codec inside MuxConn; MuxConn, core and fsys inside
// the raw-frame server rung; that inside the client call — so a layer's self
// time is its rung minus the rungs it contains.
func climb(w workload, chk *checker, tr *tracer, quick bool, layer map[string]float64) error {
	size := w.payload()
	data := make([]byte, max(size, 1))
	newRNG(1, 9).fill(data)
	data = data[:size]
	// Timings per rung: calls of single-call rungs, scratch files and calls
	// per file for the data rungs (as many as fit in 32 MiB), and timings of
	// batch calls each for the rungs too short for a clock reading per call.
	calls, files, perFile, timings, batch := 2048, 4, 512, 200, 1000
	if quick {
		calls, files, perFile, timings, batch = 64, 1, 16, 10, 100
	}
	if size > 0 {
		perFile = max(1, min(perFile, 32<<20/size))
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	// storage: allocate an extent, fill it, read it back.
	store := storage.NewStore(64 << 20)
	buf := make([]byte, size)
	if size > 0 {
		var ext storage.Extent
		layer["storage.alloc_ns"] = tr.rung("storage.alloc", "fsys.append", perFile*files, 1, func() {
			ext, _ = store.Alloc(int64(size))
			_ = store.Release(ext)
		})
		ext, err := store.Alloc(int64(size))
		if err != nil {
			return fmt.Errorf("storage rung: %w", err)
		}
		layer["storage.write_us"] = us(tr.rung("storage.write", "fsys.append", perFile*files, 1, func() { _, _ = store.WriteAt(ext, 0, data) }))
		layer["storage.read_us"] = us(tr.rung("storage.read", "fsys.read", perFile*files, 1, func() { _, _ = store.ReadAt(ext, 0, buf) }))
	} else {
		layer["storage.alloc_ns"], layer["storage.write_us"], layer["storage.read_us"] = 0, 0, 0
	}

	// fsys: the namespace calls always, the data calls when there is payload.
	shard := fsys.NewShard("ladder", 64<<20)
	n := 0
	layer["fsys.create_us"] = us(tr.rung("fsys.create", "server.write", calls, 1, func() {
		name := fmt.Sprintf("f%d", n)
		n++
		chk.ladder("fsys create", shard.CreateEntry("/"+name, false, 1, 1<<20, nil))
		chk.ladder("fsys add child", shard.AddChild("/", name))
	}))
	n = 0
	layer["fsys.stat_us"] = us(tr.rung("fsys.stat", "server.read", calls, 1, func() {
		_, err := shard.Stat(fmt.Sprintf("/f%d", n))
		n++
		chk.ladder("fsys stat", err)
	}))
	n = 0
	layer["fsys.remove_us"] = us(tr.rung("fsys.remove", "server.write", calls, 1, func() {
		name := fmt.Sprintf("f%d", n)
		n++
		chk.ladder("fsys remove", shard.RemoveEntry("/"+name))
		chk.ladder("fsys remove child", shard.RemoveChild("/", name))
	}))
	layer["fsys.append_us"], layer["fsys.read_us"] = 0, 0
	if size > 0 {
		var appendNs, readNs []float64
		for file := 0; file < files; file++ {
			path := fmt.Sprintf("/data%d", file)
			chk.ladder("fsys create", shard.CreateEntry(path, false, 1, 1<<20, nil))
			off := int64(0)
			appendNs = append(appendNs, tr.rung("fsys.append", "server.write", perFile, 1, func() {
				_, err := shard.AppendAtGen(path, off, data, 1)
				off += int64(size)
				chk.ladder("fsys append", err)
			}))
			off = 0
			readNs = append(readNs, tr.rung("fsys.read", "server.read", perFile, 1, func() {
				_, err := shard.ReadAtGen(path, off, buf, 1)
				off += int64(size)
				chk.ladder("fsys read", err)
			}))
			chk.ladder("fsys remove", shard.RemoveEntry(path))
		}
		layer["fsys.append_us"], layer["fsys.read_us"] = us(median(appendNs)), us(median(readNs))
	}

	// core: one request through the token scheduler.
	themis := core.New(policy.SizeFair, 1)
	themis.SetJobs(w.jobs())
	popped := make([]*sched.Request, 1)
	reqs := make([]*sched.Request, len(w.jobs()))
	for i, j := range w.jobs() {
		reqs[i] = &sched.Request{Job: j, Op: sched.OpWrite, Bytes: int64(size)}
	}
	n = 0
	layer["core.push_pop_ns"] = tr.rung("core.push_pop", "server.write", timings, batch, func() {
		themis.Push(reqs[n%len(reqs)])
		n++
		themis.PopBatch(0, nil, popped)
	})
	layer["policy.compile_us"] = us(tr.rung("policy.compile", "", timings, 1, func() {
		_, err := policy.Compile(w.jobs(), policy.SizeFair)
		chk.ladder("policy compile", err)
	}))
	ring := chash.New(0)
	for _, a := range w.fabric().addrs {
		ring.Add(a)
	}
	layer["chash.lookup_ns"] = tr.rung("chash.lookup", "client.write", timings, batch, func() { ring.LookupN("/d3/f1c0ffee", 1) })

	// codec: a frame's header and trailer both ways. A payload of 8 KiB or
	// more never passes through the codec on the wire (it rides as an iovec
	// of its own), so the rung leaves it out too.
	inline := data
	if size >= 8<<10 {
		inline = nil
	}
	wreq := &transport.Request{Type: transport.MsgWrite, Seq: 7, Job: ladderJob, Path: "/ladder-000001", Data: inline, LayoutGen: 1}
	wresp := &transport.Response{Seq: 7, N: int64(size), Caps: transport.CapAppendAt}
	rreq := &transport.Request{Type: transport.MsgRead, Seq: 7, Job: ladderJob, Path: "/ladder-000001", Offset: 1 << 20, Size: int64(size), LayoutGen: 1}
	rresp := &transport.Response{Seq: 7, N: int64(size), Data: inline, Caps: transport.CapAppendAt}
	var frame []byte
	var dreq transport.Request
	var dresp transport.Response
	codec := func(name string, req *transport.Request, resp *transport.Response) float64 {
		return tr.rung(name, "transport.mux"+name[len("transport.codec"):], timings, batch, func() {
			frame = transport.AppendRequestFrame(frame[:0], req)
			_ = transport.DecodeRequestFrame(frame, &dreq)
			frame = transport.AppendResponseFrame(frame[:0], resp)
			_ = transport.DecodeResponseFrame(frame, &dresp)
		})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	layer["transport.codec_write_ns"] = codec("transport.codec_write", wreq, wresp)
	layer["transport.codec_read_ns"] = codec("transport.codec_read", rreq, rresp)
	runtime.ReadMemStats(&m1)
	layer["transport.codec_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(2*timings*batch)

	// MuxConn: the same frames over loopback against a responder that does
	// nothing but answer.
	echo, err := startEcho()
	if err != nil {
		return fmt.Errorf("mux rung: %w", err)
	}
	defer echo.close()
	pool, err := dialPool(echo.addr)
	if err != nil {
		return fmt.Errorf("mux rung: %w", err)
	}
	defer pool.Close()
	mc, err := pool.SlotFor(0)
	if err != nil {
		return fmt.Errorf("mux rung: %w", err)
	}
	seq := uint64(0)
	call := func(mc *transport.MuxConn, req transport.Request) *transport.Response {
		seq++
		req.Seq = seq
		resp, err := mc.Call(context.Background(), &req)
		if err != nil {
			chk.ladder("mux call", err)
			return &transport.Response{}
		}
		if resp.Err != "" {
			chk.ladder(req.Type.String()+" frame", resp.Error())
		}
		return resp
	}
	wreq.Data, rresp.Data = data, data
	layer["transport.mux_write_us"] = us(tr.rung("transport.mux_write", "server.write", perFile*files, 1, func() { call(mc, *wreq).Release() }))
	layer["transport.mux_read_us"] = us(tr.rung("transport.mux_read", "server.read", perFile*files, 1, func() { call(mc, *rreq).Release() }))
	n = 0
	layer["transport.pool_pick_ns"] = tr.rung("transport.pool_pick", "client.write", timings, batch, func() {
		n++
		_, _ = pool.SlotFor(uint64(n))
		_, _ = pool.PickSpread()
	}) / 2

	// server: raw frames to a live server of the workload's fabric, on paths
	// the ring places there (a create elsewhere would trigger a rebalance).
	target := w.fabric().addrs[0]
	live, err := dialPool(target)
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	defer live.Close()
	lc, err := live.SlotFor(0)
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	next := 0
	place := func() string {
		for {
			next++
			if p := fmt.Sprintf("/ladder-%06d", next); ring.LookupN(p, 1)[0] == target {
				return p
			}
		}
	}
	create := func(p string) transport.Request {
		return transport.Request{Type: transport.MsgCreate, Job: ladderJob, Path: p, Stripes: 1, StripeUnit: 1 << 20, StripeSet: []string{target}}
	}
	var writeNs, readNs []float64
	if size == 0 {
		paths := make([]string, calls)
		for i := range paths {
			paths[i] = place()
		}
		n = 0
		writeNs = append(writeNs, tr.rung("server.write", "client.write", len(paths), 1, func() { call(lc, create(paths[n])).Release(); n++ }))
		n = 0
		readNs = append(readNs, tr.rung("server.read", "client.read", len(paths), 1, func() {
			call(lc, transport.Request{Type: transport.MsgStat, Job: ladderJob, Path: paths[n]}).Release()
			n++
		}))
		for _, p := range paths {
			call(lc, transport.Request{Type: transport.MsgUnlink, Job: ladderJob, Path: p}).Release()
		}
	}
	for file := 0; size > 0 && file < files; file++ {
		p := place()
		call(lc, create(p)).Release()
		st := call(lc, transport.Request{Type: transport.MsgStat, Job: ladderJob, Path: p})
		gen := st.LayoutGen // raw frames must echo the layout generation
		st.Release()
		writeNs = append(writeNs, tr.rung("server.write", "client.write", perFile, 1, func() {
			resp := call(lc, transport.Request{Type: transport.MsgWrite, Job: ladderJob, Path: p, Data: data, LayoutGen: gen})
			if resp.N != int64(size) {
				chk.fail("server rung: wrote %d of %d bytes", resp.N, size)
			}
			resp.Release()
		}))
		off := int64(0)
		readNs = append(readNs, tr.rung("server.read", "client.read", perFile, 1, func() {
			resp := call(lc, transport.Request{Type: transport.MsgRead, Job: ladderJob, Path: p, Offset: off, Size: int64(size), LayoutGen: gen})
			chk.sameBytes("server rung read", resp.Data, data)
			resp.Release()
			off += int64(size)
		}))
		call(lc, transport.Request{Type: transport.MsgUnlink, Job: ladderJob, Path: p}).Release()
	}
	layer["server.write_us"], layer["server.read_us"] = us(median(writeNs)), us(median(readNs))
	return nil
}

// ladder counts a failure inside a rung; rungs are not client calls, so they
// are not counted as attempted.
func (c *checker) ladder(what string, err error) {
	if err != nil {
		c.fail("%s: %v", what, err)
	}
}

func dialPool(addr string) (*transport.Pool, error) {
	return transport.NewPool(addr, 1, 8, func(a string) (*transport.Conn, error) {
		raw, err := net.DialTimeout("tcp", a, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return transport.NewBinaryConn(raw), nil
	})
}

// echoServer answers every request frame at once: a write with its length, a
// read with that many leased bytes. It is the far end of the MuxConn rung.
type echoServer struct {
	ln   net.Listener
	addr string
	wg   sync.WaitGroup
	mu   sync.Mutex
	open []net.Conn
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, addr: ln.Addr().String()}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.open = append(e.open, raw)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.serve(transport.NewConn(raw))
			}()
		}
	}()
	return e, nil
}

func (e *echoServer) serve(c *transport.Conn) {
	for {
		req, err := c.RecvRequest()
		if err != nil {
			return
		}
		resp := &transport.Response{Seq: req.Seq, N: int64(len(req.Data)), Caps: transport.CapAppendAt}
		if req.Type == transport.MsgRead {
			b := transport.Lease(int(req.Size))
			resp.N, resp.Data = req.Size, b
			resp.AttachLease(b)
		}
		err = c.SendResponse(resp)
		req.Release()
		resp.Release()
		if err != nil {
			return
		}
	}
}

func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.open {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// ladderRow is one line of the self-time table: a layer's rung, what it
// contains, and what is left as its own.
type ladderRow struct {
	Class    string  `json:"class"`
	Layer    string  `json:"layer"`
	RungUs   float64 `json:"rung_us"`
	SelfUs   float64 `json:"self_us"`
	SharePct float64 `json:"share_pct"`
}

type ladderTable struct {
	rows []ladderRow
	text string
}

// selfTimes turns the rungs into self times per layer for the write and the
// read call, adds the self-time metrics to layer, and renders the table. The
// self times and the residual sum to the top rung; a negative self time
// (a rung measured faster than what it contains, which separate measurements
// allow) is shown as zero and its deficit lands in the residual.
func selfTimes(layer map[string]float64) ladderTable {
	var t ladderTable
	meta := layer["fsys.append_us"] == 0 && layer["fsys.read_us"] == 0
	for _, c := range []struct{ class, dataCall, metaCall string }{{"write", "append", "create"}, {"read", "read", "stat"}} {
		class := c.class
		fs := layer["fsys."+c.dataCall+"_us"]
		if meta {
			fs = layer["fsys."+c.metaCall+"_us"]
		}
		client, server := layer["client."+class+"_us"], layer["server."+class+"_us"]
		mux, codec := layer["transport.mux_"+class+"_us"], layer["transport.codec_"+class+"_ns"]/1e3
		core, st := layer["core.push_pop_ns"]/1e3, layer["storage."+class+"_us"]
		wait := layer["client."+class+"_wait_us"]
		loaded := client + wait
		rows := []ladderRow{
			{class, "queueing", loaded, wait, 0},
			{class, "client", client, client - server, 0},
			{class, "server", server, server - mux - core - fs, 0},
			{class, "transport.mux", mux, mux - codec, 0},
			{class, "transport.codec", codec, codec, 0},
			{class, "core", core, core, 0},
			{class, "fsys", fs, fs - st, 0},
			{class, "storage", st, st, 0},
		}
		residual := loaded
		for i := range rows {
			rows[i].SelfUs = max(rows[i].SelfUs, 0)
			rows[i].SharePct = 100 * ratio(rows[i].SelfUs, loaded)
			residual -= rows[i].SelfUs
		}
		rows = append(rows, ladderRow{class, "residual", 0, residual, 100 * ratio(residual, loaded)})
		layer["client."+class+"_self_us"] = rows[1].SelfUs
		layer["server."+class+"_self_us"] = rows[2].SelfUs
		layer["transport.mux_"+class+"_self_us"] = rows[3].SelfUs
		layer["fsys."+class+"_self_us"] = rows[6].SelfUs
		layer["ladder."+class+"_residual_us"] = residual
		t.text += fmt.Sprintf("ladder of the %s call (us per call; self times and residual sum to the top rung)\n", class)
		for _, r := range rows {
			t.text += fmt.Sprintf("  %-16s rung %10.2f  self %10.2f  %6.1f %%\n", r.Layer, r.RungUs, r.SelfUs, r.SharePct)
		}
		t.rows = append(t.rows, rows...)
	}
	return t
}

// maxSpansPerName bounds the trace file: a name with more spans is written
// with an even stride, and the file says so.
const maxSpansPerName = 20000

func writeTrace(dir string, o options, tr *tracer, rows []ladderRow) error {
	byName := map[string][]span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var kept []span
	strides := map[string]int{}
	for _, name := range names {
		all := byName[name]
		stride := (len(all) + maxSpansPerName - 1) / maxSpansPerName
		strides[name] = stride
		for i := 0; i < len(all); i += stride {
			kept = append(kept, all[i])
		}
	}
	doc := map[string]any{"workload": o.workload, "seed": o.seed, "env": environment(),
		"span_stride": strides, "ladder": rows, "spans": kept}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+o.workload+".json"), raw, 0o644)
}
