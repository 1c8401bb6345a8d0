// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one per experiment, plus micro-benchmarks of the hot
// paths (policy compilation, token draws, scheduler push/pop). Figure
// benchmarks report the key reproduced quantities via b.ReportMetric so
// `go test -bench` output doubles as a results table; EXPERIMENTS.md
// records paper-vs-measured side by side.
//
// Run:
//
//	go test -bench=. -benchmem
package themisio

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/core"
	"themisio/internal/experiments"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/transport"
)

// reportMetrics publishes selected experiment metrics on the benchmark.
func reportMetrics(b *testing.B, res *experiments.Result, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := res.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Capacity()
		reportMetrics(b, res, "write_gbps", "read_gbps", "combined_gbps")
	}
}

func BenchmarkFig7Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7()
		reportMetrics(b, res, "n1_read_gbps", "n8_eff", "n128_read_gbps", "n128_eff")
	}
}

func BenchmarkFig8aSizeFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8a()
		reportMetrics(b, res, "alone_gbps", "job1_gbps", "job2_gbps", "ratio")
	}
}

func BenchmarkFig8bJobFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8b()
		reportMetrics(b, res, "job1_gbps", "job2_gbps", "ratio")
	}
}

func BenchmarkFig8cUserFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8c()
		reportMetrics(b, res, "userA_gbps", "userB_gbps")
	}
}

func BenchmarkFig9UserThenSizeFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9()
		reportMetrics(b, res, "user1_gbps", "user2_gbps", "u1_ratio", "u2_ratio")
	}
}

func BenchmarkFig10GroupUserSizeFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10()
		reportMetrics(b, res, "total_gbps", "group1_share", "group2_share")
	}
}

func BenchmarkFig12VsGiftTbf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12()
		reportMetrics(b, res,
			"themisio_peak_gbps", "gift_peak_gbps", "tbf_peak_gbps",
			"themisio_sigma_mbps", "gift_sigma_mbps", "tbf_sigma_mbps",
			"peak_gain_vs_gift_pct", "peak_gain_vs_tbf_pct")
	}
}

func BenchmarkFig14LambdaFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig14()
		reportMetrics(b, res,
			"l10_converge_interval", "l500_converge_interval",
			"l10_share_sigma", "l500_share_sigma")
	}
}

// Fig13/Fig1 run the full application suite (~1 minute of wall time per
// iteration); kept as a benchmark so `-bench Fig13` regenerates the
// table, but the per-app numbers live in EXPERIMENTS.md.
func BenchmarkFig13Applications(b *testing.B) {
	if testing.Short() {
		b.Skip("application suite takes ~1 minute")
	}
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13()
		reportMetrics(b, res,
			"NAMD_fifo_pct", "NAMD_fair_pct",
			"WRF_fifo_pct", "WRF_fair_pct",
			"ResNet-50_fifo_pct", "ResNet-50_fair_pct")
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Ablation()
		reportMetrics(b, res, "opp_total_gbps", "strict_total_gbps")
	}
}

func BenchmarkMetadataIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Metadata()
		reportMetrics(b, res, "fifo_victim_gbps", "fair_victim_gbps")
	}
}

// BenchmarkStageOutSharing measures the drain engine's bandwidth share
// against a foreground job under two policies; the share must track the
// compiled token share (EXPERIMENTS.md records the numbers).
func BenchmarkStageOutSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.StageOut()
		reportMetrics(b, res,
			"sizefair_fg_gbps", "sizefair_drain_gbps",
			"sizefair_drain_share", "jobfair_drain_share")
	}
}

// BenchmarkRebalanceSharing measures join-time stripe migration's
// bandwidth share against a foreground job under two policies; like
// drain traffic, the measured share must track the compiled token
// share (EXPERIMENTS.md records the numbers).
func BenchmarkRebalanceSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Rebalance()
		reportMetrics(b, res,
			"sizefair_fg_gbps", "sizefair_migration_gbps",
			"sizefair_migration_share", "jobfair_migration_share")
	}
}

// --- micro-benchmarks of the contribution's hot paths -------------------

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

// BenchmarkPolicyCompile measures Equation 1 (matrix chain compilation)
// for a three-tier composite policy over growing job populations — the
// controller pays this on every job arrival/departure/λ-sync.
func BenchmarkPolicyCompile(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		jobs := makeJobs(n)
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := policy.Compile(jobs, policy.GroupUserSizeFair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenDraw measures one statistical token draw + queue pop —
// the paper's argument is that this beats maintaining N tiers of locked
// token queues.
func BenchmarkTokenDraw(b *testing.B) {
	for _, n := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			th := core.New(policy.SizeFair, 1)
			jobs := makeJobs(n)
			th.SetJobs(jobs)
			reqs := make([]*sched.Request, n)
			for i := range reqs {
				reqs[i] = &sched.Request{Job: jobs[i], Op: sched.OpWrite, Bytes: 1 << 20}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Push(reqs[i%n])
				if th.Pop(0, nil) == nil {
					b.Fatal("unexpected empty pop")
				}
			}
		})
	}
}

// BenchmarkThemisContended measures the scheduler under the live
// server's concurrency shape — 8 connection goroutines pushing, 4
// workers popping. The retired single-mutex design it replaced lives on
// as the `globalmutex` rows of BENCH_PR6–10.json (striped ≥ 2× it).
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
// 64 KiB write request and its read-back response). The gob codec it
// replaced lives on as the `gob/*` rows of BENCH_PR7.json.
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

// BenchmarkSchedulers compares push+pop cost across all four schedulers
// under identical two-job traffic.
func BenchmarkSchedulers(b *testing.B) {
	jobs := makeJobs(2)
	mk := map[string]func() sched.Scheduler{
		"fifo":   func() sched.Scheduler { return sched.NewFIFO() },
		"themis": func() sched.Scheduler { return core.New(policy.JobFair, 1) },
		"gift":   func() sched.Scheduler { return sched.NewGIFT(sched.GIFTConfig{Capacity: 22e9}) },
		"tbf":    func() sched.Scheduler { return sched.NewTBF(sched.TBFConfig{Capacity: 22e9}) },
	}
	for name, factory := range mk {
		b.Run(name, func(b *testing.B) {
			s := factory()
			s.SetJobs(jobs)
			now := time.Duration(0)
			for i := 0; i < b.N; i++ {
				s.Push(&sched.Request{Job: jobs[i%2], Op: sched.OpWrite, Bytes: 1 << 20})
				now += time.Microsecond
				s.Pop(now, nil)
			}
		})
	}
}

// BenchmarkPolicySwapSharing runs the live policy hot-swap sweep: a
// mid-flood policy flip, a flip during a rebalance, and a straggling
// member, each reporting the measured-vs-compiled share residuals the
// fairness CI gate bounds at ±0.02.
func BenchmarkPolicySwapSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.PolicySwap()
		reportMetrics(b, res,
			"swap_post_share", "swap_post_residual",
			"rebalance_post_residual", "straggler_ledger_residual")
	}
}
