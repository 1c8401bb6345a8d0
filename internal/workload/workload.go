// Package workload provides the I/O request streams used throughout the
// paper's evaluation (§5.1): IOR-style bulk transfers, the 10 MB
// write-then-read cycles of Figures 8–12, and the customized benchmark's
// iops_stat and iops_write_read modes. A Stream yields the next request a
// client process would issue, with an optional compute ("think") time
// before it.
package workload

import (
	"time"

	"themisio/internal/sched"
)

// Item is one step of a client process: think for Think, then issue an Op
// of Bytes.
type Item struct {
	Op    sched.Op
	Bytes int64
	Think time.Duration
}

// Stream yields the request sequence of one process. Next returns false
// when the process is finished.
type Stream interface {
	Next() (Item, bool)
}

// Func adapts a function to the Stream interface.
type Func func() (Item, bool)

// Next implements Stream.
func (f Func) Next() (Item, bool) { return f() }

// Common sizes used by the paper's benchmarks.
const (
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// WriteReadCycle is the benchmark program of §5.3: "Each process writes
// 10 MB of data to its file, then reads it back, and continues to repeat
// this write/read cycle for a set length of time". The stream is
// infinite; the cluster's process stop time bounds it.
func WriteReadCycle(fileBytes, blockBytes int64) Stream {
	if blockBytes <= 0 {
		blockBytes = MB
	}
	if fileBytes <= 0 {
		fileBytes = 10 * MB
	}
	var off int64
	reading := false
	return Func(func() (Item, bool) {
		op := sched.OpWrite
		if reading {
			op = sched.OpRead
		}
		n := blockBytes
		if off+n > fileBytes {
			n = fileBytes - off
		}
		it := Item{Op: op, Bytes: n}
		off += n
		if off >= fileBytes {
			off = 0
			reading = !reading
		}
		return it, true
	})
}

// IOR generates the unidirectional IOR runs of §5.2: totalBytes of op in
// blockBytes transfers ("writing and reading 1 GB files in 1 MB blocks"),
// then the stream ends.
func IOR(op sched.Op, totalBytes, blockBytes int64) Stream {
	if blockBytes <= 0 {
		blockBytes = MB
	}
	var done int64
	return Func(func() (Item, bool) {
		if done >= totalBytes {
			return Item{}, false
		}
		n := blockBytes
		if done+n > totalBytes {
			n = totalBytes - done
		}
		done += n
		return Item{Op: op, Bytes: n}, true
	})
}

// IORLoop repeats IOR traffic forever (for background-job use).
func IORLoop(op sched.Op, blockBytes int64) Stream {
	if blockBytes <= 0 {
		blockBytes = MB
	}
	return Func(func() (Item, bool) {
		return Item{Op: op, Bytes: blockBytes}, true
	})
}

// StatStorm is the customized benchmark's iops_stat mode: "repeatedly
// calls stat() to query file metadata with randomly generated file
// names". File-name randomness is irrelevant to scheduling, so the
// stream simply issues stats forever.
func StatStorm() Stream {
	return Func(func() (Item, bool) {
		return Item{Op: sched.OpStat}, true
	})
}

// WithThink inserts a fixed think time before every item of s — the
// simplest compute/I-O interleave.
func WithThink(s Stream, d time.Duration) Stream {
	return Func(func() (Item, bool) {
		it, ok := s.Next()
		if !ok {
			return Item{}, false
		}
		it.Think += d
		return it, true
	})
}

// Phases yields count repetitions of: think compute, then ioBytes of op
// in blockBytes requests — the generic scientific-application phase
// structure (checkpoint/trajectory output every N timesteps). count <= 0
// repeats forever.
func Phases(op sched.Op, compute time.Duration, ioBytes, blockBytes int64, count int) Stream {
	if blockBytes <= 0 {
		blockBytes = MB
	}
	phase := 0
	var off int64
	return Func(func() (Item, bool) {
		if count > 0 && phase >= count {
			return Item{}, false
		}
		it := Item{Op: op}
		if off == 0 {
			it.Think = compute
		}
		n := blockBytes
		if off+n > ioBytes {
			n = ioBytes - off
		}
		it.Bytes = n
		off += n
		if off >= ioBytes {
			off = 0
			phase++
		}
		return it, true
	})
}
