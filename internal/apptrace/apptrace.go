// Package apptrace models the five real applications of the paper's
// evaluation (§5.1, §5.5) as I/O phase traces: alternating compute and
// I/O bursts whose volumes and concurrency are sized so that each
// application's baseline I/O fraction matches what the paper's measured
// slowdowns imply. DESIGN.md documents this substitution (real runs on
// Frontera → traces on the simulator); EXPERIMENTS.md records the
// derivation of each parameter set.
//
// Synchronous applications (NAMD, WRF, SPECFEM3D, BERT, ResNet-sync)
// compute for a phase and then write/read their phase volume through
// IOProcs concurrent streams. ResNet-50's default configuration instead
// uses asynchronous I/O: a prefetch pipeline reads the next batches while
// the trainer computes, which is why its interference behaviour is
// non-linear (§5.5: "with asynchronous I/O, ResNet-50 is bounded by the
// computation and communication. As the I/O latency increases, I/O
// becomes the dominating factor").
package apptrace

import (
	"time"

	"themisio/internal/bb"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

// App describes one application trace.
type App struct {
	Name  string
	Nodes int

	// Synchronous phase structure.
	Phases  int           // number of compute+I/O phases
	Compute time.Duration // compute time per phase
	IOBytes int64         // I/O volume per phase per I/O process
	Block   int64         // request size
	IOProcs int           // concurrent I/O streams
	Depth   int           // queue depth per stream
	Op      sched.Op      // I/O direction of the bursts

	// Asynchronous pipeline structure (ResNet). When Async is true the
	// phase fields above are reinterpreted: Phases = training steps,
	// Compute = per-step compute, IOBytes = per-step batch volume.
	Async    bool
	Prefetch int // batches the pipeline may run ahead
}

// Handle reports the application's completion.
type Handle struct {
	App      App
	Finished bool
	DoneAt   time.Duration
}

// TTS returns the time-to-solution, panicking if the app never finished
// (the experiment's horizon was too short — a configuration error).
func (h *Handle) TTS() time.Duration {
	if !h.Finished {
		panic("apptrace: " + h.App.Name + " did not finish within the simulation horizon")
	}
	return h.DoneAt
}

// Run launches the application on the cluster at time 0 under the given
// job identity, targeting all servers.
func Run(c *bb.Cluster, app App, job policy.JobInfo) *Handle {
	h := &Handle{App: app}
	if app.Async {
		runAsync(c, app, job, h)
		return h
	}
	handles := c.AddJob(bb.JobSpec{
		Job:   job,
		Procs: app.IOProcs,
		MakeStream: func(int) workload.Stream {
			return workload.Phases(app.Op, app.Compute, app.IOBytes, app.Block, app.Phases)
		},
		QueueDepth: app.Depth,
	})
	// Poll completion cheaply on the engine: phases end on request
	// completions, so checking at a coarse period loses at most one
	// period of precision — refine by checking at every bin boundary.
	var watch func(time.Duration)
	watch = func(time.Duration) {
		if bb.AllFinished(handles) {
			h.Finished = true
			h.DoneAt = bb.LastDone(handles)
			return
		}
		c.Engine().After(10*time.Millisecond, watch)
	}
	c.Engine().At(0, watch)
	return h
}

// runAsync wires the ResNet-style prefetch pipeline: reader streams keep
// up to Prefetch batches in flight or buffered; the trainer consumes one
// batch per step and computes for Compute. A step stalls only when no
// batch is buffered — exactly the "I/O becomes the dominating factor"
// regime when interference slows the readers below the consume rate.
//
// Each of the IOProcs reader workers fetches its slice of the batch one
// Block-sized request at a time (DataLoader workers are sequential), so a
// batch keeps exactly IOProcs requests outstanding — the pipeline cannot
// flood the queue the way an unbounded fan-out would.
func runAsync(c *bb.Cluster, app App, job policy.JobInfo, h *Handle) {
	eng := c.Engine()
	perProc := app.IOBytes / int64(app.IOProcs)
	if perProc <= 0 {
		perProc = app.Block
	}
	var (
		buffered       int
		inflight       int
		step           int
		issued         int
		trainerWaiting bool
	)
	var issueBatches func()
	var startStep func()

	issueBatch := func() {
		inflight++
		issued++
		remaining := app.IOProcs
		for p := 0; p < app.IOProcs; p++ {
			target := (issued*app.IOProcs + p) % c.Servers()
			bytes := perProc
			// chain issues this worker's slice sequentially.
			var chain func(time.Duration)
			chain = func(time.Duration) {
				if bytes <= 0 {
					remaining--
					if remaining == 0 {
						inflight--
						buffered++
						if trainerWaiting {
							trainerWaiting = false
							startStep()
						}
						issueBatches()
					}
					return
				}
				n := app.Block
				if n > bytes {
					n = bytes
				}
				bytes -= n
				c.Submit(target, &sched.Request{Job: job, Op: sched.OpRead, Bytes: n, Done: chain})
			}
			chain(0)
		}
	}
	issueBatches = func() {
		for buffered+inflight < app.Prefetch && issued < app.Phases {
			issueBatch()
		}
	}
	startStep = func() {
		if step >= app.Phases {
			h.Finished = true
			h.DoneAt = eng.Now()
			return
		}
		if buffered == 0 {
			trainerWaiting = true
			return
		}
		buffered--
		issueBatches()
		eng.After(app.Compute, func(now time.Duration) {
			step++
			if step >= app.Phases {
				h.Finished = true
				h.DoneAt = now
				return
			}
			startStep()
		})
	}
	eng.At(0, func(time.Duration) {
		issueBatches()
		startStep()
	})
}

// The application suite, calibrated against the paper's configurations
// (§5.1) and measured baseline I/O fractions (§5.5; see EXPERIMENTS.md
// for the per-app derivation). Volumes are scaled so each app's baseline
// time-to-solution is tens of virtual seconds rather than hours, which
// preserves every reported ratio.
var (
	// NAMD: 64 nodes, trajectory saved every 48 steps (the paper modified
	// the input to do so), making checkpoints a substantial fraction of
	// the run (~21% of baseline); 56 writers saturate the link at baseline.
	NAMD = App{
		Name: "NAMD", Nodes: 64, Phases: 6,
		Compute: 6 * time.Second, IOBytes: 635 * workload.MB, Block: workload.MB,
		IOProcs: 56, Depth: 1, Op: sched.OpWrite,
	}
	// WRF: 4 nodes, 12 km CONUS history output each simulated hour;
	// moderate I/O fraction (~16% of baseline runtime).
	WRF = App{
		Name: "WRF", Nodes: 4, Phases: 6,
		Compute: 5 * time.Second, IOBytes: 365 * workload.MB, Block: workload.MB,
		IOProcs: 56, Depth: 1, Op: sched.OpWrite,
	}
	// BERT: 4 nodes, reads 48 MB HDF5 shards between long compute steps;
	// small I/O fraction (~1.3%), bandwidth-bound bursts.
	BERT = App{
		Name: "BERT", Nodes: 4, Phases: 4,
		Compute: 8 * time.Second, IOBytes: 42 * workload.MB, Block: workload.MB,
		IOProcs: 56, Depth: 1, Op: sched.OpRead,
	}
	// SPECFEM3D: 16 nodes, seismogram dumps; tiny I/O fraction (~1%).
	SPECFEM3D = App{
		Name: "SPECFEM3D", Nodes: 16, Phases: 5,
		Compute: 8 * time.Second, IOBytes: 33 * workload.MB, Block: workload.MB,
		IOProcs: 56, Depth: 1, Op: sched.OpWrite,
	}
	// ResNet-50 with asynchronous I/O (the PyTorch DataLoader pipeline):
	// 16 reader workers stream each step's 2.48 GB batch, prefetch depth
	// 2. At baseline the batch read (~155 ms) hides under the 250 ms
	// compute step (I/O ≈ 0.62× compute, per §5.5's sync-overhead
	// measurement).
	ResNet50 = App{
		Name: "ResNet-50", Nodes: 16, Phases: 60,
		Compute: 250 * time.Millisecond, IOBytes: 2480 * workload.MB, Block: workload.MB,
		IOProcs: 16, Depth: 1, Op: sched.OpRead,
		Async: true, Prefetch: 2,
	}
	// ResNet-50 with synchronous I/O (§5.5's validation variant): reads
	// serialized with compute (IOBytes here is per reader process, as for
	// the other synchronous traces). The per-step volume is reduced
	// relative to the async trace so that the FIFO interference factor
	// lands at the paper's ~2.0x; the cost is a smaller sync-vs-async
	// baseline overhead than the paper's 62.1% (see EXPERIMENTS.md).
	ResNet50Sync = App{
		Name: "ResNet-50-sync", Nodes: 16, Phases: 60,
		Compute: 250 * time.Millisecond, IOBytes: 57 * workload.MB, Block: workload.MB,
		IOProcs: 16, Depth: 1, Op: sched.OpRead,
	}
)

// Suite returns the five applications in the paper's Figure 13 order.
func Suite() []App {
	return []App{NAMD, WRF, BERT, SPECFEM3D, ResNet50}
}
