// Micro-benchmarks of two rungs the fabric benchmark's ladder also
// times (benchmark/README.md): the token scheduler under the live
// server's concurrency shape, and the wire codec on the hot data
// messages. CI runs them at -benchtime 1x so they cannot bit-rot;
// performance is gated by `bash benchmark/run.sh -compare`.
package themisio

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"themisio/internal/core"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/transport"
)

func makeJobs(n int) []policy.JobInfo {
	jobs := make([]policy.JobInfo, n)
	for i := range jobs {
		jobs[i] = policy.JobInfo{
			JobID:   fmt.Sprintf("job%04d", i),
			UserID:  fmt.Sprintf("user%02d", i%17),
			GroupID: fmt.Sprintf("grp%d", i%5),
			Nodes:   i%64 + 1,
		}
	}
	return jobs
}

// BenchmarkThemisContended measures the scheduler under the live
// server's concurrency shape — 8 connection goroutines pushing, 4
// workers popping.
func BenchmarkThemisContended(b *testing.B) {
	const pushers, poppers = 8, 4
	jobs := makeJobs(16)
	reqs := make([]*sched.Request, len(jobs))
	for i := range reqs {
		reqs[i] = &sched.Request{Job: jobs[i], Op: sched.OpWrite, Bytes: 1 << 20}
	}
	run := func(b *testing.B, push func(*sched.Request), pop func() *sched.Request, pending func() int) {
		// Work is pre-split per goroutine: the harness itself shares no
		// counters on the hot path, so only scheduler costs are measured.
		per := b.N/pushers + 1
		var pushWG, popWG sync.WaitGroup
		var pushersDone atomic.Bool
		counts := make([]int64, poppers*8) // spaced to avoid false sharing
		b.ResetTimer()
		for p := 0; p < pushers; p++ {
			pushWG.Add(1)
			go func(p int) {
				defer pushWG.Done()
				for i := 0; i < per; i++ {
					// Closed-loop backpressure, as real connections have:
					// without it the benchmark mostly measures GC over an
					// unbounded backlog instead of scheduler contention.
					for pending() > 4096 {
						runtime.Gosched()
					}
					push(reqs[(p+i)%len(reqs)])
				}
			}(p)
		}
		for w := 0; w < poppers; w++ {
			popWG.Add(1)
			go func(w int) {
				defer popWG.Done()
				for {
					if pop() != nil {
						counts[w*8]++
						continue
					}
					if pushersDone.Load() && pending() == 0 {
						return
					}
					runtime.Gosched()
				}
			}(w)
		}
		pushWG.Wait()
		pushersDone.Store(true)
		popWG.Wait()
		var popped int64
		for w := 0; w < poppers; w++ {
			popped += counts[w*8]
		}
		if want := int64(per * pushers); popped != want {
			b.Fatalf("conservation: popped %d of %d", popped, want)
		}
	}
	b.Run("striped", func(b *testing.B) {
		th := core.New(policy.SizeFair, 1)
		th.SetJobs(jobs)
		run(b, th.Push, func() *sched.Request { return th.Pop(0, nil) }, th.Pending)
	})
}

// BenchmarkCodec measures the wire codec on the hot data messages (a
// 64 KiB write request and its read-back response).
func BenchmarkCodec(b *testing.B) {
	req := &transport.Request{
		Type: transport.MsgWrite,
		Seq:  12345,
		Job:  policy.JobInfo{JobID: "job42", UserID: "user7", GroupID: "grp1", Nodes: 64},
		Path: "/data/checkpoint-000042.bin",
		Data: bytes.Repeat([]byte{0xa5}, 64<<10),
	}
	resp := &transport.Response{Seq: 12345, N: 64 << 10, Data: req.Data}
	b.Run("binary/write-req", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			scratch = transport.AppendRequestFrame(scratch[:0], req)
			var got transport.Request
			if err := transport.DecodeRequestFrame(scratch, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary/read-resp", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			scratch = transport.AppendResponseFrame(scratch[:0], resp)
			var got transport.Response
			if err := transport.DecodeResponseFrame(scratch, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
