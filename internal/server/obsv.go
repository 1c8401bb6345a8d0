package server

import (
	"net"
	"strconv"
	"time"

	"themisio/internal/cluster"
	"themisio/internal/obsv"
	"themisio/internal/sched"
	"themisio/internal/transport"
)

// Operator metrics wiring: every layer of the fabric exported through
// one per-server obsv.Registry (Config.Metrics). Almost everything here
// is a scrape-time callback over counters the fabric already maintains
// lock-free — the request path pays nothing for them. The only hot-path
// instruments are the transport frame accounting (two atomic adds per
// frame), the per-op request-latency and queue-wait histograms, and the
// draw-latency histogram, all gated on Config.Metrics being set.

// numOps is the number of sched.Op values (OpSeek is the last).
const numOps = int(sched.OpSeek) + 1

// waitBuckets is the latency ladder extended down to 1 µs: on a server
// with a slot to spare a request waits a few µs between its arrival and
// its draw, under LatencyBuckets' first bound.
var waitBuckets = append([]float64{.000001, .0000025, .000005, .00001, .000025, .00005}, obsv.LatencyBuckets...)

// serverMetrics holds the hot-path instrument handles; the scrape-time
// callbacks are registered once and never referenced again.
type serverMetrics struct {
	transport *transport.Stats
	reqLat    [numOps]*obsv.Histogram
	queueWait [numOps]*obsv.Histogram
	drawLat   *obsv.Histogram
}

// newServerMetrics registers the full themis_* family set for s on reg
// and returns the hot-path handles. Called once from New; reg must not
// already hold another server's families (one registry per server).
func newServerMetrics(reg *obsv.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{transport: &transport.Stats{}}

	// --- core scheduler ---------------------------------------------------
	reg.CounterFunc("themis_sched_draws_total",
		"Statistical lottery tokens drawn since boot.",
		func() float64 { return float64(s.sched.Draws()) })
	reg.GaugeFunc("themis_sched_pending_requests",
		"Requests currently queued across all jobs.",
		func() float64 { return float64(s.sched.Pending()) })
	reg.CounterFunc("themis_sched_policy_compiles_total",
		"Policy compilations (grows with job-set changes, not requests).",
		func() float64 { return float64(s.sched.Compiles()) })
	reg.CounterFunc("themis_sched_compile_full_total",
		"From-scratch policy compilations (bootstrap, policy swaps, delta fallbacks).",
		func() float64 { return float64(s.sched.CompilesFull()) })
	reg.CounterFunc("themis_sched_compile_delta_total",
		"Incremental delta recompiles that patched the previous epoch's share tree.",
		func() float64 { return float64(s.sched.CompilesDelta()) })
	reg.GaugeFunc("themis_sched_epoch",
		"Current compiled token-assignment epoch sequence.",
		func() float64 { return float64(s.sched.EpochSeq()) })
	reg.GaugeVecFunc("themis_sched_backlog_requests",
		"Queued requests per job.", []string{"job"},
		func(emit obsv.Emit) {
			for job, n := range s.sched.Backlogs() {
				emit([]string{job}, float64(n))
			}
		})
	reg.CounterVecFunc("themis_sched_served_bytes_total",
		"Serviced bytes per job (request Cost at pop time).", []string{"job"},
		func(emit obsv.Emit) {
			for job, n := range s.sched.ServedBytes() {
				emit([]string{job}, float64(n))
			}
		})
	m.drawLat = reg.Histogram("themis_sched_draw_latency_seconds",
		"Latency of token draws that handed out a request.",
		obsv.LatencyBuckets)
	s.sched.SetDrawObserver(func(d time.Duration) { m.drawLat.Observe(d.Seconds()) })

	// --- server execution -------------------------------------------------
	reg.CounterFunc("themis_server_requests_served_total",
		"Client requests executed, by drainers and by connection readers.",
		func() float64 { return float64(s.served.Load()) })
	reg.CounterFunc("themis_server_reader_served_total",
		"Client requests executed by the connection reader that drew them on a spare slot instead of starting a drainer.",
		func() float64 { return float64(s.readerServed.Load()) })
	lat := reg.HistogramVec("themis_server_request_latency_seconds",
		"Request latency from communicator arrival to reply sent, by operation.",
		obsv.LatencyBuckets, "op")
	wait := reg.HistogramVec("themis_server_queue_wait_seconds",
		"Time from communicator arrival to the start of execution (the token draw), by operation; stage-out chunks included.",
		waitBuckets, "op")
	for op := 0; op < numOps; op++ {
		m.reqLat[op] = lat.With(sched.Op(op).String())
		m.queueWait[op] = wait.With(sched.Op(op).String())
	}

	// --- transport --------------------------------------------------------
	reg.CounterVecFunc("themis_transport_frames_total",
		"Frames exchanged on accepted connections, by message type and direction.",
		[]string{"type", "dir"},
		func(emit obsv.Emit) {
			m.transport.Snapshot(func(typ, dir string, frames, _ int64) {
				emit([]string{typ, dir}, float64(frames))
			})
		})
	reg.CounterVecFunc("themis_transport_bytes_total",
		"Exact wire bytes on accepted connections (framing included), by message type and direction.",
		[]string{"type", "dir"},
		func(emit obsv.Emit) {
			m.transport.Snapshot(func(typ, dir string, _, bytes int64) {
				emit([]string{typ, dir}, float64(bytes))
			})
		})
	reg.CounterFunc("themis_transport_writev_frames_total",
		"Data frames sent vectored — header and payload as separate iovecs in one writev (process-wide).",
		func() float64 { v, _, _ := transport.IOStats(); return float64(v) })
	reg.CounterFunc("themis_transport_writev_payload_bytes_total",
		"Payload bytes that rode out as their own iovec, never concatenated into scratch (process-wide).",
		func() float64 { _, b, _ := transport.IOStats(); return float64(b) })
	reg.CounterFunc("themis_transport_flat_frames_total",
		"Frames whose payload was copied into the connection's pending buffer (control traffic and sub-threshold payloads, process-wide).",
		func() float64 { _, _, f := transport.IOStats(); return float64(f) })
	reg.CounterFunc("themis_transport_send_writes_total",
		"Write calls (write or writev) that carried the writev and flat frames; frames per write is the group-commit batch size (process-wide).",
		func() float64 { _, w := transport.SendStats(); return float64(w) })
	reg.CounterFunc("themis_transport_lease_gets_total",
		"Payload-pool leases handed out (frame receives and read replies, process-wide).",
		func() float64 { g, _ := transport.LeaseStats(); return float64(g) })
	reg.CounterFunc("themis_transport_lease_misses_total",
		"Payload-pool leases that had to allocate a fresh buffer (process-wide).",
		func() float64 { _, mi := transport.LeaseStats(); return float64(mi) })
	reg.GaugeFunc("themis_transport_pool_conns_open",
		"Connections open across every live per-server connection pool (process-wide).",
		func() float64 { o, _, _ := transport.ConnPoolStats(); return float64(o) })
	reg.GaugeFunc("themis_transport_pool_conns_dialing",
		"Pool slots with a dial in progress (process-wide).",
		func() float64 { _, d, _ := transport.ConnPoolStats(); return float64(d) })
	reg.GaugeFunc("themis_transport_pool_conns_cooldown",
		"Pool slots sitting out a dial-failure cooldown (process-wide).",
		func() float64 { _, _, cd := transport.ConnPoolStats(); return float64(cd) })
	reg.CounterVecFunc("themis_transport_pool_picks_total",
		"Connection picks by pool slot index; the last slot aggregates wider pools (process-wide).",
		[]string{"slot"},
		func(emit obsv.Emit) {
			transport.PoolPicks(func(slot int, picks int64) {
				emit([]string{strconv.Itoa(slot)}, float64(picks))
			})
		})
	reg.GaugeVecFunc("themis_transport_pool_inflight",
		"In-flight window tokens held against each pooled server.",
		[]string{"server"},
		func(emit obsv.Emit) {
			transport.PoolsSnapshot(func(addr string, _, inflight int64) {
				emit([]string{addr}, float64(inflight))
			})
		})

	// --- storage device ---------------------------------------------------
	// The device is a mapping outside the Go heap, so the runtime's own
	// memory figures say nothing about it; these two do.
	reg.GaugeFunc("themis_storage_capacity_bytes",
		"Size of the server's storage device.",
		func() float64 { return float64(s.cfg.Capacity) })
	reg.GaugeFunc("themis_storage_used_bytes",
		"Device bytes allocated to file extents.",
		func() float64 { return float64(s.shard.Used()) })

	// --- backing / stage-out ----------------------------------------------
	reg.GaugeFunc("themis_backing_dirty_bytes",
		"Bytes on the shard not yet staged to the backing store.",
		func() float64 { return float64(s.shard.DirtyBytes()) })
	reg.GaugeFunc("themis_backing_drain_queue_depth",
		"Stage-out chunks handed to the scheduler and not yet durable.",
		func() float64 {
			if s.drain == nil {
				return 0
			}
			return float64(s.drain.InFlight())
		})
	reg.CounterFunc("themis_backing_staged_chunks_total",
		"Stage-out chunks written to the backing store.",
		func() float64 { return float64(drainChunks(s)) })
	reg.CounterFunc("themis_backing_staged_bytes_total",
		"Bytes written to the backing store by the drain engine.",
		func() float64 { return float64(drainBytes(s)) })
	reg.CounterFunc("themis_backing_drain_errors_total",
		"Stage-out chunk failures (each is retried).",
		func() float64 { return float64(drainErrs(s)) })

	// --- rebalance --------------------------------------------------------
	reg.CounterFunc("themis_rebalance_files_migrated_total",
		"Files re-striped onto the current ring by the migrator.",
		func() float64 { f, _, _, _ := s.migr.Stats(); return float64(f) })
	reg.CounterFunc("themis_rebalance_bytes_migrated_total",
		"Stripe bytes copied during rebalancing.",
		func() float64 { _, b, _, _ := s.migr.Stats(); return float64(b) })
	reg.CounterFunc("themis_rebalance_errors_total",
		"Migration sub-operation failures (passes retry).",
		func() float64 { _, _, e, _ := s.migr.Stats(); return float64(e) })
	reg.GaugeFunc("themis_rebalance_pending",
		"Migration candidates of the in-flight pass plus unretired stale-stripe drops.",
		func() float64 { _, _, _, p := s.migr.Stats(); return float64(p) })
	reg.GaugeFunc("themis_rebalance_epoch",
		"Ring epoch the shard was last fully reconciled against.",
		func() float64 { return float64(s.migr.Epoch()) })

	// --- cluster ----------------------------------------------------------
	reg.GaugeFunc("themis_cluster_members_alive",
		"Members currently alive in this server's view.",
		func() float64 {
			n := 0
			for _, mb := range s.node.Membership().Snapshot() {
				if mb.State == cluster.StateAlive {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("themis_cluster_membership_epoch",
		"Membership ring epoch in this server's view.",
		func() float64 { return float64(s.node.Membership().Epoch()) })
	reg.CounterFunc("themis_cluster_gossip_rounds_total",
		"λ gossip rounds run since boot.",
		func() float64 { return float64(s.node.GossipRounds()) })
	reg.GaugeFunc("themis_cluster_policy_epoch",
		"Cluster policy epoch the scheduler is currently enforcing (0 = boot policy).",
		func() float64 { _, e := s.AppliedPolicy(); return float64(e) })

	// --- per-entity share ledger ------------------------------------------
	shareLabels := []string{"kind", "id"}
	reg.GaugeVecFunc("themis_share_compiled",
		"Compiled token share per entity in the last λ window.", shareLabels,
		func(emit obsv.Emit) {
			for _, e := range s.ctl.Ledger().Report() {
				emit([]string{e.Kind, e.ID}, e.Compiled)
			}
		})
	reg.GaugeVecFunc("themis_share_measured",
		"Measured serviced-byte share per entity in the last λ window.", shareLabels,
		func(emit obsv.Emit) {
			for _, e := range s.ctl.Ledger().Report() {
				emit([]string{e.Kind, e.ID}, e.Measured)
			}
		})
	reg.GaugeVecFunc("themis_share_residual",
		"measured − compiled share per entity (|residual| > 0.02 sustained means the share contract is drifting).",
		shareLabels,
		func(emit obsv.Emit) {
			for _, e := range s.ctl.Ledger().Report() {
				emit([]string{e.Kind, e.ID}, e.Measured-e.Compiled)
			}
		})
	return m
}

// drainChunks/drainBytes/drainErrs tolerate a nil drainer (no backing
// store, or a boot-failed rehydration) so the families are always
// present.
func drainChunks(s *Server) int64 {
	if s.drain == nil {
		return 0
	}
	c, _, _ := s.drain.Stats()
	return c
}

func drainBytes(s *Server) int64 {
	if s.drain == nil {
		return 0
	}
	_, b, _ := s.drain.Stats()
	return b
}

func drainErrs(s *Server) int64 {
	if s.drain == nil {
		return 0
	}
	_, _, e := s.drain.Stats()
	return e
}

// observeRequest records one completed request's arrival-to-reply
// latency under its op label. Nil-receiver safe: the uninstrumented
// server calls this with s.met == nil and pays only the branch.
func (m *serverMetrics) observeRequest(op sched.Op, d time.Duration) {
	if m == nil {
		return
	}
	if i := int(op); i >= 0 && i < numOps {
		m.reqLat[i].Observe(d.Seconds())
	}
}

// observeQueueWait records how long one drawn request waited between
// its arrival and the start of its execution. The caller checks m.
func (m *serverMetrics) observeQueueWait(op sched.Op, d time.Duration) {
	if i := int(op); i >= 0 && i < numOps {
		m.queueWait[i].Observe(d.Seconds())
	}
}

// newConn wraps an accepted connection, with transport accounting when
// metrics are enabled, and makes the shard its sink: large write
// payloads are read straight into the store.
func (s *Server) newConn(raw net.Conn) *transport.Conn {
	var st *transport.Stats
	if s.met != nil {
		st = s.met.transport
	}
	c := transport.NewConnStats(raw, st)
	c.SetSink(s.shard)
	return c
}
