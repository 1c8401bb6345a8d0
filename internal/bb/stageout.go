package bb

import (
	"fmt"
	"time"

	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/workload"
)

// Stage-out mirror: the simulator's model of the live drain engine. The
// live server submits dirty-chunk write-backs through the token
// scheduler under a synthetic background job (policy.StageOutJob), so
// the sharing policy arbitrates stage-out bandwidth against foreground
// I/O. The simulator mirrors that as a closed-loop background writer
// pinned to one server under the same job identity — which is exactly
// what a continuously-dirty shard looks like to the scheduler.

// StageOutJobID returns the simulated server i's stage-out job id (what
// the live drain engine would use for server "bb<i>").
func StageOutJobID(i int) string {
	return policy.StageOutJob(fmt.Sprintf("bb%d", i)).JobID
}

// AddStageOut registers a stage-out drain on server i: an endless
// stream of chunk-sized writes (chunkBytes <= 0 selects the live
// engine's 1 MiB default) with depth outstanding chunks (<= 0 selects
// the default queue depth), running from start to stop. Returns the
// proc handle for completion accounting; meter the job under
// StageOutJobID(i).
func (c *Cluster) AddStageOut(i int, chunkBytes int64, depth int, start, stop time.Duration) *ProcHandle {
	return c.addBackground(policy.StageOutJob(fmt.Sprintf("bb%d", i)), i, chunkBytes, depth, start, stop)
}

// addBackground registers a closed-loop writer of chunk-sized requests
// pinned to server i under a synthetic background job identity.
func (c *Cluster) addBackground(job policy.JobInfo, i int, chunkBytes int64, depth int, start, stop time.Duration) *ProcHandle {
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	return c.AddProc(Proc{
		Job:        job,
		Stream:     workload.IORLoop(sched.OpWrite, chunkBytes),
		Targets:    []int{i},
		QueueDepth: depth,
		Start:      start,
		Stop:       stop,
	})
}

// RebalanceJobID returns the simulated server i's rebalance job id
// (what the live migration coordinator would use for server "bb<i>").
func RebalanceJobID(i int) string {
	return policy.RebalanceJob(fmt.Sprintf("bb%d", i)).JobID
}

// AddRebalance registers a join-time rebalance on server i: the
// simulator's model of the live migration coordinator, a closed-loop
// background writer of chunk-sized stripe installs under the rebalance
// job identity — which is exactly what a server absorbing migrated
// stripes looks like to the scheduler. Meter the job under
// RebalanceJobID(i).
func (c *Cluster) AddRebalance(i int, chunkBytes int64, depth int, start, stop time.Duration) *ProcHandle {
	return c.addBackground(policy.RebalanceJob(fmt.Sprintf("bb%d", i)), i, chunkBytes, depth, start, stop)
}
