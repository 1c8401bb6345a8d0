package bb

import (
	"fmt"
	"time"

	"themisio/internal/control"
	"themisio/internal/jobtable"
	"themisio/internal/metrics"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/sim"
)

// Config describes a simulated burst-buffer deployment.
type Config struct {
	// Servers is the number of burst-buffer nodes.
	Servers int
	// NewSched builds the scheduler for server i with the given combined
	// device bandwidth (capacity-aware schedulers — GIFT, TBF — need it).
	NewSched func(i int, capacity float64) sched.Scheduler

	// Bandwidths; zero selects the Frontera-calibrated defaults.
	DirBW     float64
	DeviceBW  float64
	OpsPerSec float64

	// Tick is the fluid-service quantum; Lambda the job-table all-gather
	// interval (§3.1); Bin the metering bin width.
	Tick   time.Duration
	Lambda time.Duration
	Bin    time.Duration

	// ScaleAlpha is the interconnect-congestion coefficient for
	// multi-server runs; zero selects the calibrated default. Set negative
	// to disable scaling losses.
	ScaleAlpha float64

	// SyncDelay models the control-plane cost of the λ all-gather (server
	// processing + interconnect, §5.6): snapshots taken at the λ boundary
	// take effect SyncDelay later. Zero applies syncs instantly.
	SyncDelay time.Duration

	// HeartbeatTimeout is the job-table inactivity window.
	HeartbeatTimeout time.Duration
}

func (c *Config) fill() {
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.DirBW <= 0 {
		c.DirBW = DefaultDirBW
	}
	if c.DeviceBW <= 0 {
		c.DeviceBW = DefaultDeviceBW
	}
	if c.OpsPerSec <= 0 {
		c.OpsPerSec = DefaultOpsPerSec
	}
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	if c.Lambda <= 0 {
		c.Lambda = DefaultLambda
	}
	if c.Bin <= 0 {
		c.Bin = DefaultBin
	}
	if c.ScaleAlpha == 0 {
		c.ScaleAlpha = DefaultScaleAlpha
	}
}

// Cluster is a simulated remote-shared burst buffer: servers with
// schedulers and job tables, client processes submitting closed-loop
// request streams, and a meter observing completions. Single-threaded
// over a virtual clock; completely deterministic for a fixed seed.
type Cluster struct {
	cfg     Config
	eng     *sim.Engine
	servers []*server
	meter   *Meter
	eff     float64
	// swaps numbers SwapPolicy calls: the simulated cluster policy epoch.
	swaps uint64
}

// NewCluster builds a cluster. NewSched is required.
func NewCluster(cfg Config) *Cluster {
	cfg.fill()
	if cfg.NewSched == nil {
		panic("bb: Config.NewSched is required")
	}
	c := &Cluster{
		cfg:   cfg,
		eng:   sim.New(),
		meter: NewMeter(cfg.Bin),
	}
	alpha := cfg.ScaleAlpha
	if alpha < 0 {
		alpha = 0
		c.eff = 1
	} else {
		c.eff = Efficiency(cfg.Servers, alpha)
	}
	for i := 0; i < cfg.Servers; i++ {
		id := fmt.Sprintf("bb%d", i)
		sch := cfg.NewSched(i, cfg.DeviceBW*c.eff)
		table := jobtable.New(id, cfg.HeartbeatTimeout)
		c.servers = append(c.servers, &server{
			c: c, id: id, sch: sch, table: table,
			ctl: control.New(table, sch),
		})
	}
	// Service tick loop.
	var tick func()
	tick = func() {
		now := c.eng.Now()
		for _, s := range c.servers {
			s.serve(now, cfg.Tick)
		}
		c.eng.At(now+cfg.Tick, tick)
	}
	c.eng.At(0, tick)
	// λ-delayed global fairness: all-gather the job status tables, then
	// run every live server's controller step — what themisd's controller
	// goroutine does after its gossip round.
	c.eng.Every(cfg.Lambda, func() {
		c.SyncTables()
		now := c.eng.Now()
		for _, s := range c.servers {
			if !s.failed {
				s.ctl.Tick(now)
			}
		}
	})
	return c
}

// SwapPolicy schedules a live policy hot-swap: server i is handed the new
// policy version at virtual time at + i·stagger and applies it at its
// next controller step, as a live member applies a gossiped version. A
// zero stagger is a rumor that reached everyone within one round; a
// positive one is the straggler scenario — the last server keeps
// arbitrating under the old policy until the rumor lands.
func (c *Cluster) SwapPolicy(at time.Duration, pol policy.Policy, stagger time.Duration) {
	c.swaps++
	epoch := c.swaps
	for i, s := range c.servers {
		c.eng.At(at+time.Duration(i)*stagger, func() { s.ctl.OfferPolicy(pol, epoch) })
	}
}

// ShareReport returns server i's latest per-entity share report — what
// MsgShareReport answers on a live server (nil for baseline schedulers
// or before the first non-idle λ window).
func (c *Cluster) ShareReport(i int) []metrics.ShareEntry {
	return c.servers[i].ctl.Ledger().Report()
}

// Engine exposes the discrete-event engine (for app traces and tests).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.eng.Now() }

// Meter returns the throughput meter.
func (c *Cluster) Meter() *Meter { return c.meter }

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return len(c.servers) }

// Scheduler returns server i's scheduler (for inspection).
func (c *Cluster) Scheduler(i int) sched.Scheduler { return c.servers[i].sch }

// Table returns server i's job status table.
func (c *Cluster) Table(i int) *jobtable.Table { return c.servers[i].table }

// Efficiency returns the applied multi-server scaling efficiency.
func (c *Cluster) Efficiency() float64 { return c.eff }

// SyncTables performs one λ synchronization round (the λ loop calls
// this on schedule; tests may call it directly): an all-gather of the
// live servers' job tables. With SyncDelay configured, peer snapshots
// are captured now but merged SyncDelay later. What a merge changes is
// published and compiled by the server's next submit or λ step.
func (c *Cluster) SyncTables() {
	var tables []*jobtable.Table
	for _, s := range c.servers {
		if !s.failed {
			tables = append(tables, s.table)
		}
	}
	if c.cfg.SyncDelay <= 0 {
		jobtable.AllGather(tables, c.eng.Now())
		return
	}
	snaps := make([][]jobtable.Entry, len(tables))
	for i, t := range tables {
		snaps[i] = t.Snapshot()
	}
	c.eng.After(c.cfg.SyncDelay, func() {
		at := c.eng.Now()
		for i, t := range tables {
			for j, snap := range snaps {
				if i != j {
					t.Merge(snap, at)
				}
			}
		}
	})
}

// FailServer marks server i failed, mirroring the live fabric's
// failover: the server stops serving and syncing, its queued requests
// are abandoned, and every survivor drops its sightings, so from its next
// submit or λ step the 1/k presence deweighting shifts each affected
// job's tokens onto the remaining servers.
func (c *Cluster) FailServer(i int) {
	s := c.servers[i]
	if s.failed {
		return
	}
	s.failed = true
	s.parked = nil
	for _, p := range c.servers {
		if !p.failed {
			p.table.DropServer(s.id)
		}
	}
}

// Failed reports whether server i has been failed.
func (c *Cluster) Failed(i int) bool { return c.servers[i].failed }

// Submit enqueues a request on server i at the current virtual time. A
// request aimed at a failed server lands on the next live server in
// index order — the sim mirror of the client's ring reassignment. Most
// callers use AddProc; app traces with custom control loops use Submit
// directly.
func (c *Cluster) Submit(i int, r *sched.Request) {
	for n := 0; n < len(c.servers) && c.servers[i].failed; n++ {
		i = (i + 1) % len(c.servers)
	}
	if c.servers[i].failed {
		// Enqueueing on a failed server would drop the request silently
		// (its serve loop never runs); a driver doing this has failed
		// the whole cluster and should hear about it deterministically.
		panic("bb: Submit with every server failed")
	}
	c.servers[i].submit(c.eng.Now(), r)
}

// Run advances the simulation to the given virtual time.
func (c *Cluster) Run(until time.Duration) {
	c.eng.RunUntil(until)
}

// server models one burst-buffer node: a scheduler fed by the
// communicator (submit) and drained by a fluid-service loop standing in
// for the worker pool. Per tick, the server moves up to DeviceBW·dt bytes
// total, DirBW·dt per direction, and OpsPerSec·dt requests — the §5.2
// hardware envelope.
type server struct {
	c      *Cluster
	id     string
	sch    sched.Scheduler
	table  *jobtable.Table
	ctl    *control.Loop
	failed bool

	// parked holds requests whose service straddles tick boundaries
	// (budget for their direction ran out); they are served ahead of the
	// scheduler next tick, preserving their position.
	parked []parkedReq
}

type parkedReq struct {
	r     *sched.Request
	rem   float64
	start time.Duration
}

// submit is the communicator. It applies the controller's nudge rule in
// place: the event loop owns the control loop, so the compile a live
// reader would ask the controller goroutine for runs here.
func (s *server) submit(now time.Duration, r *sched.Request) {
	if r.Arrive == 0 {
		r.Arrive = now
	}
	s.ctl.Submit(r, now)
	if s.ctl.Stale() {
		s.ctl.Compile(now)
	}
}

// parkCap bounds how many requests a server may park per tick. One park
// per direction is the common case (a request caught mid-service when its
// direction's budget runs out); the cap keeps a pathological pop sequence
// from draining the scheduler queue into the park list.
const parkCap = 64

func (s *server) serve(now time.Duration, dt time.Duration) {
	if s.failed {
		return
	}
	sec := dt.Seconds()
	devB := s.c.cfg.DeviceBW * s.c.eff * sec
	readB := s.c.cfg.DirBW * s.c.eff * sec
	writeB := s.c.cfg.DirBW * s.c.eff * sec
	ops := s.c.cfg.OpsPerSec * s.c.eff * sec
	end := now + dt

	// attempt services as much of p as budgets allow; returns the leftover
	// (rem > 0) if the request must stay parked. Metadata operations hit
	// in-memory structures, not the data device: they are bounded by the
	// IOPS envelope alone and never charge byte budgets.
	attempt := func(p parkedReq) (parkedReq, bool) {
		if !p.r.Op.IsData() {
			s.complete(p.r, p.start, end)
			return p, true
		}
		avail := devB
		switch p.r.Op {
		case sched.OpRead:
			if readB < avail {
				avail = readB
			}
		case sched.OpWrite:
			if writeB < avail {
				avail = writeB
			}
		}
		if avail < 1 {
			return p, false
		}
		take := p.rem
		if take > avail {
			take = avail
		}
		devB -= take
		switch p.r.Op {
		case sched.OpRead:
			readB -= take
		case sched.OpWrite:
			writeB -= take
		}
		p.rem -= take
		if p.rem >= 1 {
			return p, false
		}
		s.complete(p.r, p.start, end)
		return p, true
	}

	// Serve carried-over requests first, preserving order.
	var still []parkedReq
	for _, p := range s.parked {
		if left, done := attempt(p); !done {
			still = append(still, left)
		}
	}
	// Then drain the scheduler while budget remains. The allow filter
	// keeps policy schedulers from handing out requests for a direction
	// whose budget is exhausted — the real server's workers would not
	// start those transfers, so the scheduling priority must be spent on
	// requests that can actually run. FIFO ignores the filter (strict
	// order), so its popped requests may still park — head-of-line
	// blocking, faithfully reproduced.
	allow := func(op sched.Op) bool {
		switch op {
		case sched.OpRead:
			return devB >= 1 && readB >= 1
		case sched.OpWrite:
			return devB >= 1 && writeB >= 1
		}
		return true // metadata rides the IOPS envelope only
	}
	for ops >= 1 && len(still) < parkCap {
		r := s.sch.Pop(now, allow)
		if r == nil {
			break // empty, all heads disallowed, or throttled (GIFT/TBF)
		}
		ops--
		if left, done := attempt(parkedReq{r: r, rem: float64(r.Cost()), start: now}); !done {
			still = append(still, left)
		}
	}
	s.parked = still
}

func (s *server) complete(r *sched.Request, start, end time.Duration) {
	s.c.meter.Record(r.Job.JobID, r.Op, r.Bytes, start, end)
	if r.Done != nil {
		done := r.Done
		s.c.eng.At(end, func() { done(end) })
	}
}
