package bb

import (
	"time"

	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

// Proc describes one client process: a closed-loop request stream issued
// against a set of target servers. A benchmark job of P processes is P
// Procs sharing a JobInfo, matching "the benchmark program in these
// experiments opens one file per process" (§5.3.1).
type Proc struct {
	Job policy.JobInfo
	// Stream yields the process's requests. Required.
	Stream workload.Stream
	// Targets are server indices the process stripes requests over
	// round-robin; empty means all servers.
	Targets []int
	// QueueDepth is the number of outstanding requests the process keeps
	// in flight (0 selects DefaultQueueDepth).
	QueueDepth int
	// Start is when the process begins issuing; Stop (if non-zero) cuts
	// it off even if the stream has more items.
	Start time.Duration
	Stop  time.Duration
}

// ProcHandle reports a process's fate after the simulation runs.
type ProcHandle struct {
	// Finished is true once the stream is exhausted (or Stop passed) and
	// all in-flight requests completed.
	Finished bool
	// DoneAt is the completion time (valid when Finished).
	DoneAt time.Duration
	// Issued counts requests issued; Completed counts completions.
	Issued    int64
	Completed int64

	alive int // outstanding issue chains
}

// AddProc registers a process with the cluster. Must be called before the
// virtual clock passes p.Start.
func (c *Cluster) AddProc(p Proc) *ProcHandle {
	if p.Stream == nil {
		panic("bb: Proc.Stream is required")
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = DefaultQueueDepth
	}
	if len(p.Targets) == 0 {
		p.Targets = make([]int, len(c.servers))
		for i := range c.servers {
			p.Targets[i] = i
		}
	}
	h := &ProcHandle{}
	ps := &procState{c: c, spec: p, h: h}
	ps.done = ps.completed
	c.eng.At(p.Start, func(now time.Duration) {
		h.alive = p.QueueDepth
		for i := 0; i < p.QueueDepth; i++ {
			ps.issue(now)
		}
	})
	return h
}

// JobSpec is a convenience bundle: a job of Procs identical processes.
type JobSpec struct {
	Job        policy.JobInfo
	Procs      int
	MakeStream func(proc int) workload.Stream
	Targets    []int
	QueueDepth int
	Start      time.Duration
	Stop       time.Duration
}

// AddJob registers all of a job's processes and returns their handles.
func (c *Cluster) AddJob(js JobSpec) []*ProcHandle {
	if js.Procs <= 0 {
		js.Procs = 1
	}
	handles := make([]*ProcHandle, js.Procs)
	for i := 0; i < js.Procs; i++ {
		handles[i] = c.AddProc(Proc{
			Job:        js.Job,
			Stream:     js.MakeStream(i),
			Targets:    js.Targets,
			QueueDepth: js.QueueDepth,
			Start:      js.Start,
			Stop:       js.Stop,
		})
	}
	return handles
}

// AllFinished reports whether every handle finished.
func AllFinished(hs []*ProcHandle) bool {
	for _, h := range hs {
		if !h.Finished {
			return false
		}
	}
	return true
}

// LastDone returns the latest DoneAt among finished handles.
func LastDone(hs []*ProcHandle) time.Duration {
	var last time.Duration
	for _, h := range hs {
		if h.Finished && h.DoneAt > last {
			last = h.DoneAt
		}
	}
	return last
}

// procState drives one process's closed loop inside the event engine.
type procState struct {
	c    *Cluster
	spec Proc
	h    *ProcHandle
	rr   int
	// done is the method value ps.completed, made once per process: the
	// Done handler of every request the process issues.
	done func(now time.Duration)
}

// issue advances one in-flight chain: take the next stream item, wait out
// its think time, submit, and re-issue on completion.
func (ps *procState) issue(now time.Duration) {
	if ps.spec.Stop > 0 && now >= ps.spec.Stop {
		ps.chainDone(now)
		return
	}
	it, ok := ps.spec.Stream.Next()
	if !ok {
		ps.chainDone(now)
		return
	}
	if it.Think > 0 {
		ps.c.eng.After(it.Think, func(t time.Duration) { ps.fire(t, it) })
		return
	}
	ps.fire(now, it)
}

// fire submits the request for stream item it at time t.
func (ps *procState) fire(t time.Duration, it workload.Item) {
	if ps.spec.Stop > 0 && t >= ps.spec.Stop {
		ps.chainDone(t)
		return
	}
	r := &sched.Request{Job: ps.spec.Job, Op: it.Op, Bytes: it.Bytes, Arrive: t, Done: ps.done}
	ps.h.Issued++
	target := ps.spec.Targets[ps.rr%len(ps.spec.Targets)]
	ps.rr++
	ps.c.servers[target].submit(t, r)
}

func (ps *procState) completed(now time.Duration) {
	ps.h.Completed++
	ps.issue(now)
}

func (ps *procState) chainDone(now time.Duration) {
	ps.h.alive--
	if ps.h.alive == 0 {
		ps.h.Finished = true
		ps.h.DoneAt = now
	}
}
