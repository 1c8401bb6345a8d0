// Package server implements the live (goroutine + socket) ThemisIO
// server of §4.1: a communicator accepting client connections and
// grouping requests into per-job queues, a job monitor tracking
// heartbeats, a controller recompiling token assignments and
// synchronizing job tables with peer servers every λ, and a worker pool
// drawing statistical tokens and executing requests against the
// user-space file system.
//
// The live server shares the scheduler (package core), the controller
// step (package control), job table, policy compiler and storage
// substrate with the discrete-event simulator. What differs is the
// serving plane (goroutines and sockets instead of a fluid-service tick),
// the clock, and how tables synchronize: gossip here, an exact all-gather
// there.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/backing"
	"themisio/internal/cluster"
	"themisio/internal/control"
	"themisio/internal/core"
	"themisio/internal/fsys"
	"themisio/internal/jobtable"
	"themisio/internal/metrics"
	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/transport"
)

// wakeBuffer is the capacity of the counting wake channel. It only needs
// to exceed the deepest burst the workers could fail to observe; beyond
// that, a dropped token is provably redundant (wakeBuffer wakeups are
// already banked).
const wakeBuffer = 4096

// workerBatch is how many statistical tokens a worker draws per wake —
// small enough that fairness granularity is unaffected (each draw is
// still its own token), large enough to amortize the park/unpark cost.
const workerBatch = 8

// Config parameterizes a live server.
type Config struct {
	// Policy is the sharing policy (default size-fair, the paper's
	// recommended production setting).
	Policy policy.Policy
	// Workers is the worker-pool size (default 4).
	Workers int
	// Capacity is the storage device size in bytes (default 256 MiB).
	Capacity int64
	// Lambda is the job-table sync interval with peers (default 500 ms).
	Lambda time.Duration
	// HeartbeatTimeout marks jobs inactive (default jobtable default).
	HeartbeatTimeout time.Duration
	// Seed fixes the start of the token sequence, together with the
	// listen address (see schedSeed).
	Seed int64
	// OpDelay emulates per-request device time (the RAM-backed store is
	// otherwise far faster than any real device, so a saturated-queue
	// regime — the only regime where fairness matters — would be
	// unreachable in tests). Zero disables it. It is a lower bound: the
	// delay is a time.Sleep, and a sub-millisecond sleep on an idle
	// processor returns at the runtime's idle-timer granularity — on the
	// reference box 500 µs measured 1.2 ms and 100 µs measured 1.0 ms
	// (docs/PERFLOG.md, the first "Sized and not pursued" section).
	OpDelay time.Duration
	// Join lists existing cluster members to join through; the join is
	// attempted when Serve starts and retried each λ until one seed
	// answers, so start order is free.
	Join []string
	// GossipFanout is the number of random peers contacted per λ round
	// (default cluster.DefaultFanout).
	GossipFanout int
	// FailTimeout confirms a suspect peer failed after this sighting age
	// (default 6×Lambda).
	FailTimeout time.Duration
	// Backing is the stage-out backing store (the PFS behind the burst
	// buffer). When set, the server re-hydrates its shard from it at
	// start, drains dirty data back asynchronously — through the token
	// scheduler, under the sharing policy, as a synthetic background
	// job — and moves failed peers' files onto the survivors, reading
	// the dead stripes from their staged objects. Nil disables
	// durability (the seed behaviour).
	Backing backing.Store
	// RebalanceDisabled turns off join-time stripe rebalancing (on by
	// default): with it set, a newly joined member receives new
	// placements but existing files never migrate toward it. Files a
	// failed member held still move.
	RebalanceDisabled bool
	// Logger receives the server's structured log output; the server
	// adds component and addr attributes. Nil selects slog.Default()
	// (the owning binary decides handler, level and prefix — this
	// package no longer hardcodes a "themisd:" prefix).
	Logger *slog.Logger
	// Metrics, when set, wires the full fabric instrumentation —
	// scheduler, transport, workers, backing, rebalance, cluster, and
	// the per-entity share ledger — into this registry. One registry
	// per server: families are registered once in New. Nil disables
	// instrumentation entirely (the hot path pays only nil checks).
	Metrics *obsv.Registry
	// Quiet disables logging (overrides Logger with a no-op handler).
	Quiet bool
}

// Server is a live ThemisIO server instance.
type Server struct {
	cfg     Config
	sched   *core.Themis
	table   *jobtable.Table
	ctl     *control.Loop
	node    *cluster.Node
	shard   *fsys.Shard
	drain   *backing.Drainer
	migr    *Migrator
	bootErr error
	start   time.Time
	log     *slog.Logger
	met     *serverMetrics

	ln     net.Listener
	addr   string // ln's address, the name membership and stripe sets know
	wg     sync.WaitGroup
	closed atomic.Bool
	// wake is a counting wake channel: every Push deposits one token
	// (dropped only when wakeBuffer tokens are already banked, i.e. the
	// workers have far more wakeups than they can consume). Unlike the
	// old cap-1 channel, concurrent pushes cannot collapse into a single
	// token and leave a worker parked while queues are non-empty.
	wake chan struct{}
	// nudge asks the controller goroutine for a compile between λ ticks
	// (see nudgeIfStale). One pending request covers any number of
	// askers: the compile it buys folds in every edit recorded so far.
	nudge chan struct{}

	// connMu guards conns, the accepted connections still being served;
	// Close force-closes them so communicator goroutines blocked in
	// RecvRequest unwind (a peer's cached gossip connection would
	// otherwise keep the server alive past Close).
	connMu sync.Mutex
	conns  map[*transport.Conn]struct{}

	served atomic.Int64
}

// schedSeed derives the scheduler's seed from the configured one and the
// listen address. The members of a fabric share a Seed (themisd sets
// none), and equal token sequences would serve a striped job at the same
// instants on every server and leave it idle at the same instants.
func schedSeed(seed int64, addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return seed ^ int64(h.Sum64())
}

// New creates a server bound to the listener.
func New(ln net.Listener, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256 << 20
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 500 * time.Millisecond
	}
	if len(cfg.Policy.Levels) == 0 && !cfg.Policy.FIFO {
		cfg.Policy = policy.SizeFair
	}
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = 6 * cfg.Lambda
	}
	addr := ln.Addr().String()
	shard := fsys.NewShard(addr, cfg.Capacity)
	table := jobtable.New(addr, cfg.HeartbeatTimeout)
	themis := core.New(cfg.Policy, schedSeed(cfg.Seed, addr))
	s := &Server{
		cfg:   cfg,
		sched: themis,
		table: table,
		ctl:   control.New(table, themis),
		node: cluster.NewNode(cluster.Config{
			Self:        addr,
			Fanout:      cfg.GossipFanout,
			FailTimeout: cfg.FailTimeout,
			Seed:        cfg.Seed,
		}, table),
		shard: shard,
		start: time.Now(),
		ln:    ln,
		addr:  addr,
		wake:  make(chan struct{}, wakeBuffer),
		nudge: make(chan struct{}, 1),
		conns: map[*transport.Conn]struct{}{},
	}
	base := cfg.Logger
	if cfg.Quiet {
		base = obsv.NopLogger()
	} else if base == nil {
		base = slog.Default()
	}
	base = base.With("addr", addr)
	s.log = base.With("component", "server")
	if cfg.Backing != nil {
		// Stage-in: restore whatever this server staged out before its
		// last shutdown or crash (keyed by the listen address). A failed
		// re-hydration is fatal to Serve: running with a partial shard
		// would silently diverge from (and then corrupt) the staged
		// state. The server object is still fully constructed — migrator,
		// metrics and all — so the operator endpoint can report the
		// failure (healthz 503) instead of vanishing.
		n, err := backing.Rehydrate(shard, cfg.Backing, addr)
		if err != nil {
			s.bootErr = err
		} else {
			if n > 0 {
				s.log.Info("rehydrated from backing store", "entries", n)
			}
			s.drain = backing.NewDrainer(addr, shard, cfg.Backing)
		}
	}
	s.migr = NewMigrator(addr, shard, s.node, cfg.Backing, base.With("component", "rebalance"))
	s.migr.failoverOnly = cfg.RebalanceDisabled
	if cfg.Metrics != nil {
		s.met = newServerMetrics(cfg.Metrics, s)
	}
	return s
}

// Ready reports whether the server is able to serve: false with a
// reason while a failed boot (BootErr) blocks Serve or after Close.
// The operator endpoint's /healthz answers from this.
func (s *Server) Ready() (bool, string) {
	if err := s.bootErr; err != nil {
		return false, "boot failed: " + err.Error()
	}
	if s.closed.Load() {
		return false, "closed"
	}
	return true, ""
}

// AppliedPolicy returns the canonical policy string the scheduler is
// enforcing and the cluster policy epoch it was applied under (0 means
// the boot policy — no live set has reached this member yet).
func (s *Server) AppliedPolicy() (string, uint64) { return s.ctl.AppliedPolicy() }

// BootErr reports a fatal startup condition (a failed backing-store
// re-hydration); Serve refuses to run while it is non-nil.
func (s *Server) BootErr() error { return s.bootErr }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.addr }

// Served returns the number of requests executed.
func (s *Server) Served() int64 { return s.served.Load() }

// Scheduler exposes the Themis scheduler for inspection (themisctl).
func (s *Server) Scheduler() *core.Themis { return s.sched }

// Cluster exposes the server's fabric endpoint (membership, ring).
func (s *Server) Cluster() *cluster.Node { return s.node }

// Table exposes the job status table for inspection and tests.
func (s *Server) Table() *jobtable.Table { return s.table }

// Shard exposes the server's piece of the file system for inspection.
func (s *Server) Shard() *fsys.Shard { return s.shard }

// now returns time since server start (the jobtable clock domain).
func (s *Server) now() time.Duration { return time.Since(s.start) }

// Serve runs the accept loop, workers, and controller until Close. It
// refuses to serve after a failed boot (see BootErr).
func (s *Server) Serve() {
	if s.bootErr != nil {
		s.log.Error("refusing to serve", "err", s.bootErr)
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.controller()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			s.log.Warn("accept failed", "err", err)
			return
		}
		s.wg.Add(1)
		go s.handleConn(s.newConn(conn))
	}
}

// Close stops the server and waits for goroutines. It does not notify
// the cluster: peers detect the silence and fail this member over (the
// crash path). Use Leave for a graceful departure.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.ln.Close()
	// The controller may be parked for most of a λ; a nudge wakes it now
	// (a full channel means it is waking already).
	select {
	case s.nudge <- struct{}{}:
	default:
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// Leave announces a graceful departure to the fabric, then stops the
// server: peers mark this member left immediately instead of waiting
// out the failure timeout. With a backing store configured, the shard
// is flushed first, so a graceful shutdown never loses bytes.
func (s *Server) Leave() {
	if !s.closed.Load() {
		if err := s.Flush(); err != nil {
			s.log.Warn("stage-out on leave failed", "err", err)
		}
		s.node.Leave(s.now())
	}
	s.Close()
}

// handleConn is the communicator: it decodes requests, feeds the job
// monitor, and enqueues scheduler work tagged with the reply path.
//
// The data path performs no policy work: requests, heartbeats and gossip
// only update the job table / fabric state, and ask the controller — the
// sole owner of recompilation — for a compile when that left the table
// with unpublished edits (see nudgeIfStale). A stream that does not
// open with the codec magic fails its first RecvRequest, so the
// connection is closed before anything is decoded.
func (s *Server) handleConn(c *transport.Conn) {
	defer s.wg.Done()
	defer c.Close()
	s.connMu.Lock()
	if s.closed.Load() {
		s.connMu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
	}()
	var replyFailed atomic.Bool
	in := getInflight()
	defer func() { in.recycle() }()
	for {
		req := &in.req
		if err := c.RecvRequestInto(req); err != nil {
			return
		}
		switch req.Type {
		case transport.MsgBye:
			return
		case transport.MsgHeartbeat:
			s.table.Heartbeat(req.Job, s.now())
			s.nudgeIfStale()
			continue
		case transport.MsgGossip, transport.MsgJoin, transport.MsgLeave,
			transport.MsgClusterStatus, transport.MsgDrain:
			resp := s.node.Handle(req, s.now())
			s.nudgeIfStale()
			if err := s.sendResponse(c, resp); err != nil {
				return
			}
			continue
		case transport.MsgFlush:
			// Forced full stage-out. The drain chunks themselves go through
			// the scheduler (the policy still arbitrates them); only the
			// completeness wait blocks, and it blocks a goroutine of its
			// own: the client's membership refresh rides the same
			// connection under a reply deadline, and a reader parked here
			// for a long flush would get this server failed over.
			resp := &transport.Response{Seq: req.Seq}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if err := s.Flush(); err != nil {
					resp.Err = err.Error()
				}
				_ = s.sendResponse(c, resp)
			}()
			continue
		case transport.MsgPolicySet:
			// Live policy hot-swap entry point: validate, canonicalize,
			// version through the fabric's rumor path. The scheduler swap
			// itself happens on every member's controller at its next λ —
			// in-flight requests re-arbitrate under the new compiled
			// shares; nothing restarts and nothing is dropped.
			resp := &transport.Response{Seq: req.Seq}
			if pol, err := policy.Parse(req.PolicyStr); err != nil {
				resp.Err = err.Error()
			} else {
				resp.PolicyStr = pol.String()
				resp.PolicyEpoch = s.node.ProposePolicy(pol.String())
			}
			if err := s.sendResponse(c, resp); err != nil {
				return
			}
			continue
		case transport.MsgShareReport:
			// Operator fairness query — control plane, not scheduled.
			// The request's paging filter (top N by |residual|, kind)
			// is applied server-side so a 100k-entity report never
			// crosses the wire; a zero filter keeps the legacy
			// full-report answer.
			ledger := s.ctl.Ledger()
			shares := ledger.Report()
			if req.ShareTopN > 0 || (req.ShareKind != "" && req.ShareKind != "all") {
				shares = ledger.ReportTop(req.ShareTopN, req.ShareKind)
			}
			polStr, polEpoch := s.ctl.AppliedPolicy()
			resp := &transport.Response{
				Seq:         req.Seq,
				PolicyStr:   polStr,
				PolicyEpoch: polEpoch,
				Epoch:       s.sched.EpochSeq(),
				Shares:      shareRecords(shares),
			}
			if err := s.sendResponse(c, resp); err != nil {
				return
			}
			continue
		case transport.MsgRebalanceStatus:
			// Operator progress query — control plane, not scheduled.
			files, bytes, errs, pending := s.migr.Stats()
			resp := &transport.Response{
				Seq: req.Seq, N: files, Size: bytes,
				Epoch: s.migr.Epoch(),
				Names: []string{
					fmt.Sprintf("files-migrated %d", files),
					fmt.Sprintf("bytes-migrated %d", bytes),
					fmt.Sprintf("errors %d", errs),
					fmt.Sprintf("pending %d", pending),
				},
			}
			if err := s.migr.LastErr(); err != nil {
				resp.Names = append(resp.Names, "last-error "+err.Error())
			}
			if err := s.sendResponse(c, resp); err != nil {
				return
			}
			continue
		}
		// Everything else is scheduled: the inflight value goes with the
		// request to the worker that draws it, and the reader takes a
		// fresh one for the next frame.
		in.conn, in.replyFailed = c, &replyFailed
		in.sched = sched.Request{
			Job:    req.Job,
			Op:     opOf(req.Type),
			Bytes:  reqBytes(req),
			Arrive: s.now(),
			Tag:    in,
		}
		s.submit(&in.sched)
		in = getInflight()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// inflight is everything one scheduled request owns between its arrival
// and its reply: the decoded frame, the scheduler's view of it, the
// reply path and the reply. Ownership is linear — the connection reader
// fills it and pushes it, exactly one worker draws it, executes it,
// sends resp and recycles it — so the value comes from a pool and a
// steady stream of requests allocates none of its five parts.
type inflight struct {
	req   transport.Request
	sched sched.Request
	resp  transport.Response
	conn  *transport.Conn
	// replyFailed is the connection's "a failed reply was logged" flag.
	replyFailed *atomic.Bool
}

var inflightPool = sync.Pool{New: func() any { return new(inflight) }}

func getInflight() *inflight { return inflightPool.Get().(*inflight) }

// recycle gives both leased frames and the value itself back. Nothing
// may read in, or anything execute returned from it, afterwards; under
// transport.SetLeasePoison the messages are scribbled to catch whoever
// does.
func (in *inflight) recycle() {
	in.req.Reset()
	in.resp.Reset()
	in.sched = sched.Request{}
	in.conn, in.replyFailed = nil, nil
	inflightPool.Put(in)
}

// sendResponse stamps this server's capability set on every outgoing
// response and sends it.
func (s *Server) sendResponse(c *transport.Conn, resp *transport.Response) error {
	resp.Caps = transport.CapAppendAt
	return c.SendResponse(resp)
}

func opOf(t transport.MsgType) sched.Op {
	switch t {
	case transport.MsgRead:
		return sched.OpRead
	case transport.MsgWrite, transport.MsgMigrate:
		return sched.OpWrite
	case transport.MsgCreate:
		return sched.OpOpen
	case transport.MsgStat:
		return sched.OpStat
	case transport.MsgMkdir:
		return sched.OpMkdir
	case transport.MsgReaddir:
		return sched.OpReaddir
	case transport.MsgUnlink:
		return sched.OpUnlink
	}
	return sched.OpClose
}

func reqBytes(r *transport.Request) int64 {
	switch r.Type {
	case transport.MsgWrite, transport.MsgMigrate:
		return int64(len(r.Data))
	case transport.MsgRead:
		return r.Size
	}
	return 0
}

// worker draws statistical tokens in small batches per wake (§4.1's
// worker loop, amortized: each draw is still its own token, so
// fairness is identical to one-at-a-time popping) and executes the
// chosen requests. The batch size adapts to the instantaneous backlog —
// a worker never claims more than its share of the pending queue — so
// that under shallow closed-loop traffic requests are not hoarded in
// worker-local buffers (which would empty the queues and void the
// conditioned draw), while deep backlogs amortize the park/unpark cost
// over up to workerBatch draws. A worker that drains its batch keeps
// popping without parking; one that finds nothing parks on the counting
// wake channel with a timeout backstop.
func (s *Server) worker() {
	defer s.wg.Done()
	batch := make([]*sched.Request, workerBatch)
	// The park backstop: one timer per worker, stopped and drained
	// whenever the loop is not parked on it.
	park := time.NewTimer(time.Hour)
	park.Stop()
	for !s.closed.Load() {
		k := s.sched.Pending() / (2 * s.cfg.Workers)
		if k < 1 {
			k = 1
		} else if k > workerBatch {
			k = workerBatch
		}
		n := s.sched.PopBatch(s.now(), nil, batch[:k])
		if n == 0 {
			park.Reset(5 * time.Millisecond)
			select {
			case <-s.wake:
				if !park.Stop() {
					<-park.C
				}
			case <-park.C:
			}
			continue
		}
		for _, r := range batch[:n] {
			if s.cfg.OpDelay > 0 {
				time.Sleep(s.cfg.OpDelay)
			}
			switch p := r.Tag.(type) {
			case *inflight:
				resp := s.execute(&p.req, &p.resp)
				s.served.Add(1)
				// A failed send latches on the connection and fails every
				// reply after it: one warning per connection says it all.
				if err := s.sendResponse(p.conn, resp); err != nil && !p.replyFailed.Swap(true) {
					s.log.Warn("reply failed", "err", err)
				}
				s.met.observeRequest(r.Op, s.now()-r.Arrive)
				// Both frames go back to the payload pool, an unadopted
				// placement to the shard, and the inflight value (r is part
				// of it) to its own, only after the reply is on the wire:
				// the request's Data is in the store or was refused, the
				// response's Data just rode out as an iovec.
				p.recycle()
			case *backing.Task:
				// A stage-out chunk the token draw selected: the sharing
				// policy has already arbitrated it against foreground I/O.
				if err := p.Run(); err != nil {
					s.log.Warn("stage-out chunk failed", "err", err)
				}
			}
		}
	}
}

// execute runs one file-system operation and answers in resp, which it
// overwrites and returns.
func (s *Server) execute(req *transport.Request, resp *transport.Response) *transport.Response {
	*resp = transport.Response{Seq: req.Seq}
	fail := func(err error) *transport.Response {
		if errors.Is(err, fsys.ErrStaleLayout) {
			// The layout-changed condition crosses the wire as a typed
			// prefix, not prose: clients re-stat and retry on it.
			resp.Err = transport.ErrStaleLayout
		} else {
			resp.Err = err.Error()
		}
		return resp
	}
	// describe answers with the entry a stat found or a namespace mutation
	// left behind (create: the file now at the path; unlink: the entry it
	// removed), read inside the critical section that did the work — so a
	// client needs no stat after the one nor before the other.
	describe := func(fi fsys.FileInfo, err error) *transport.Response {
		if err != nil {
			return fail(err)
		}
		resp.Size, resp.IsDir, resp.LayoutGen = fi.Size, fi.IsDir, fi.LayoutGen
		resp.Stripes, resp.StripeUnit, resp.StripeSet = fi.Stripes, fi.StripeUnit, fi.StripeSet
		return resp
	}
	switch req.Type {
	case transport.MsgMigrate:
		return s.executeMigrate(req, resp, fail)
	case transport.MsgCreate:
		if err := s.checkCreate(req); err != nil {
			return fail(err)
		}
		if describe(s.shard.CreateStriped(req.Path, req.Stripes, req.StripeUnit, req.StripeSet)).Err != "" {
			return resp
		}
		// A create whose recorded set diverges from the ring's placement
		// came from a client with a stale membership view (it dialed before
		// the last join). No epoch move will ever revisit it, so the
		// creation itself is the rebalance trigger — on the recorded
		// set[0] only, since only the coordinator's plan can act on it.
		if len(req.StripeSet) > 0 && req.StripeSet[0] == s.addr && !s.cfg.RebalanceDisabled {
			ring := s.node.Membership().Ring()
			if want := ring.LookupN(req.Path, max(1, req.Stripes)); !slices.Equal(req.StripeSet, want) {
				s.migr.MarkDirty()
			}
		}
	// The data ops run against the shard directly with the client's
	// layout generation checked inside the same critical section that
	// resolves the entry — a separate check could pass against the old
	// entry and then operate on the one a migration commit swapped in.
	case transport.MsgWrite:
		// A payload the connection read straight into a reserved extent
		// is adopted where it lies when it lands; a refused, parked or
		// duplicate one goes back to the shard when the request is
		// released.
		placed := req.Placed()
		var err error
		switch {
		case req.From != "":
			// A migration install: a coordinator streaming a moved stripe
			// into the pending entry of the new layout generation, which
			// no client request reaches.
			_, err = s.shard.Install(req.Path, req.AppendOff, req.Data, placed, req.LayoutGen)
		case req.AppendAt:
			// Pipelined positional append: the worker pool may execute a
			// stripe's chunks out of order, and the offset makes landing
			// order-independent (park/drain inside the shard).
			_, err = s.shard.AppendAt(req.Path, req.AppendOff, req.Data, placed, req.LayoutGen)
		default:
			_, err = s.shard.AppendGen(req.Path, req.Data, placed, req.LayoutGen)
		}
		if err != nil {
			return fail(err)
		}
		resp.N = int64(len(req.Data))
	case transport.MsgRead:
		// The reply payload is leased, not allocated: it rides out as its
		// own iovec and the worker returns it to the pool after the send.
		buf := transport.Lease(int(req.Size))
		n, err := s.shard.ReadAtGen(req.Path, req.Offset, buf, req.LayoutGen)
		if err != nil {
			transport.Release(buf)
			return fail(err)
		}
		resp.N = int64(n)
		resp.Data = buf[:n]
		resp.AttachLease(buf)
	case transport.MsgStat:
		return describe(s.shard.StatGen(req.Path, req.LayoutGen))
	case transport.MsgMkdir:
		if err := s.shard.Mkdir(req.Path); err != nil {
			return fail(err)
		}
	case transport.MsgReaddir:
		names, err := s.shard.Readdir(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Names = names
	case transport.MsgUnlink:
		return describe(s.shard.Unlink(req.Path))
	default:
		return fail(fmt.Errorf("server: no handler for request type %v", req.Type))
	}
	return resp
}

// checkCreate refuses a create whose layout placement could strand: a
// multi-stripe entry with no recorded set is read, after the next join,
// from servers that never held it, and the rebalance planner cannot move
// it. A recorded set names each stripe server once, this one among them.
func (s *Server) checkCreate(req *transport.Request) error {
	set, width := req.StripeSet, max(req.Stripes, 1)
	switch {
	case len(set) == 0 && width > 1:
		return fmt.Errorf("server: create %s: %d stripes and no stripe set", req.Path, width)
	case len(set) == 0:
		return nil
	case len(set) != width:
		return fmt.Errorf("server: create %s: %d stripes but a stripe set of %d", req.Path, width, len(set))
	case !slices.Contains(set, s.addr):
		return fmt.Errorf("server: create %s: stripe set does not name %s", req.Path, s.addr)
	case width == 1:
		return nil
	}
	sorted := slices.Clone(set)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != width {
		return fmt.Errorf("server: create %s: stripe set names a server twice", req.Path)
	}
	return nil
}

// executeMigrate runs one stripe-migration sub-op on the local shard.
// The frames arrive through the scheduler under the coordinator's
// rebalance job, so the sharing policy has already arbitrated them
// against foreground traffic by the time they land here.
func (s *Server) executeMigrate(req *transport.Request, resp *transport.Response, fail func(error) *transport.Response) *transport.Response {
	switch req.MigrateOp {
	case transport.MigrateSeal:
		size, gen, err := s.shard.Seal(req.Path, req.LayoutGen)
		if err != nil {
			return fail(err)
		}
		resp.Size, resp.Gen = size, gen
	case transport.MigrateCommit:
		if err := s.shard.MigrateCommit(fsys.FileInfo{
			Path: req.Path, Size: req.Size, Stripes: req.Stripes, StripeUnit: req.StripeUnit,
			StripeSet: req.StripeSet, LayoutGen: req.LayoutGen,
		}, req.Gen); err != nil {
			return fail(err)
		}
		// The commit may have made this server the coordinator of a
		// layout the ring wants moved again (multi-step growth); an
		// unchanged epoch would never trigger that re-plan.
		s.migr.MarkDirty()
	case transport.MigrateAbort:
		s.shard.MigrateAbort(req.Path)
	case transport.MigrateUnseal:
		s.shard.Unseal(req.Path, req.Size, req.LayoutGen)
	case transport.MigrateDrop:
		if s.shard.MigrateDrop(req.Path, req.Gen) {
			resp.N = 1
		}
	default:
		return fail(fmt.Errorf("server: unknown migrate op %d", req.MigrateOp))
	}
	return resp
}

// controller is the goroutine that drives the control loop — the paper's
// controller role. Every λ it runs the gossip round (join retried until
// a seed answers, so start order is free; then an epidemic push-pull
// exchange with k random peers) and the housekeeping, hands the loop the
// gossiped policy version, and runs the loop's λ step: expire, compile,
// close the share window. Between ticks it compiles when nudged, so a
// job that arrives mid-window has its share by its next few requests,
// not at the next tick. Steady-state traffic compiles nothing:
// recompilation is O(job-set changes), not O(requests).
func (s *Server) controller() {
	defer s.wg.Done()
	defer s.node.Close()
	defer s.migr.Close()
	tick := time.NewTicker(s.cfg.Lambda)
	defer tick.Stop()
	joined := len(s.cfg.Join) == 0
	announce := func() {
		if !joined {
			if err := s.node.Join(s.cfg.Join, s.now()); err == nil {
				joined = true
			} else {
				s.log.Info("join pending", "err", err)
			}
		}
		s.node.Gossip(s.now())
	}
	// Once before the first tick: the seeds are already listening, so a
	// joiner need not stay invisible for a whole λ.
	announce()
	for !s.closed.Load() {
		select {
		case <-s.nudge:
			s.ctl.Compile(s.now())
			continue
		case <-tick.C:
		}
		if s.closed.Load() {
			break
		}
		announce()
		if s.drain != nil {
			if n := s.drain.Pump(s.now(), s.submit); n > 0 {
				s.wakeN(n)
			}
		} else {
			// No backing store to delete staged objects from: the unlink
			// tombstones have no consumer and would grow with every unlink.
			s.shard.TakeTombstones()
		}
		s.rebalanceTick()
		s.shard.SweepMoved(movedRetention)
		s.shard.SweepParked(parkedRetention)
		s.offerPolicy()
		s.ctl.Tick(s.now())
	}
}

// offerPolicy hands the control loop the gossiped cluster policy version;
// the loop's next step recompiles under it if it is news.
func (s *Server) offerPolicy() {
	str, epoch := s.node.PolicyVersion()
	if epoch == 0 {
		return // no live set has reached this member
	}
	pol, err := policy.Parse(str)
	if err != nil {
		// Rumors are validated at set and merge; an unparseable one here
		// means a version skew bug — keep the running policy.
		s.log.Warn("ignoring bad policy rumor", "policy", str, "err", err)
		return
	}
	if s.ctl.OfferPolicy(pol, epoch) {
		s.log.Info("policy hot-swap", "policy", pol.String(), "policy_epoch", epoch)
	}
}

// submit enqueues one request stamped with its arrival time — a client's
// from a connection reader, or a stage-out chunk from the drainer, which
// enters by the same door so the controller compiles a share for the
// stage-out job and the token draw arbitrates it like any contender.
func (s *Server) submit(r *sched.Request) {
	s.ctl.Submit(r, r.Arrive)
	s.nudgeIfStale()
}

// nudgeIfStale is the nudge rule, for callers that have just fed the job
// table: edits the scheduler was not compiled with earn the controller
// goroutine a wake-up. No compile (and no publication) ever runs on the
// caller.
func (s *Server) nudgeIfStale() {
	if s.ctl.Stale() {
		select {
		case s.nudge <- struct{}{}:
		default:
		}
	}
}

// shareRecords converts ledger entries to their wire form.
func shareRecords(entries []metrics.ShareEntry) []transport.ShareRecord {
	out := make([]transport.ShareRecord, len(entries))
	for i, e := range entries {
		out[i] = transport.ShareRecord{
			Kind: e.Kind, ID: e.ID,
			Compiled: e.Compiled, Measured: e.Measured, Bytes: e.Bytes,
		}
	}
	return out
}

// wakeN deposits up to n wake tokens for the workers.
func (s *Server) wakeN(n int) {
	for i := 0; i < n; i++ {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// flushTimeout bounds a forced full stage-out.
const flushTimeout = 30 * time.Second

// Flush forces a full stage-out: every dirty byte, changed directory,
// and pending unlink reaches the backing store before it returns. The
// themisctl `flush` command and graceful shutdown both land here.
func (s *Server) Flush() error {
	if s.drain == nil {
		return nil
	}
	return s.drain.Flush(s.now, s.submit, s.wakeN, flushTimeout)
}

// Drainer exposes the stage-out engine for inspection (nil without a
// backing store).
func (s *Server) Drainer() *backing.Drainer { return s.drain }

// Migrator exposes the rebalance coordinator for inspection and tests.
func (s *Server) Migrator() *Migrator { return s.migr }

// rebalanceTick launches one asynchronous rebalance pass if none is in
// flight — migration does real network, device and backing-store I/O
// and must not stall the controller's gossip/λ loop. The pass itself
// returns immediately when the ring epoch has not moved.
func (s *Server) rebalanceTick() {
	if s.migr.running.Swap(true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.migr.running.Store(false)
		s.migr.Pass()
		s.migr.ZombieSweep()
	}()
}

// movedRetention is how long a migrated-away path keeps answering
// stale-layout before its marker is swept — far beyond every client
// retry window, so the marker map stays bounded without ever cutting a
// live retry short.
const movedRetention = 5 * time.Minute

// parkedRetention is how long an out-of-order positional-append chunk
// may wait for its missing predecessor before the sweep drops it — far
// beyond any live pipeline's round trip, so only chunks stranded by a
// dead client are ever dropped.
const parkedRetention = time.Minute
