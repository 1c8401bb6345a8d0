// Package themisio is a Go reproduction of "Fine-grained Policy-driven
// I/O Sharing for Burst Buffers" (SC 2023): ThemisIO, a policy-driven
// I/O sharing framework for remote-shared burst buffers built on a
// statistical token design.
//
// The package re-exports the library's main entry points; the
// implementation lives under internal/:
//
//   - internal/core     — the statistical token scheduler (the paper's
//     primary contribution)
//   - internal/policy   — primitive and composite sharing policies and
//     their compilation to token assignments (Equation 1)
//   - internal/token    — transition matrices, chain products, segment
//     sampling
//   - internal/jobtable — job status tables and the λ-interval
//     synchronization (gossip-disseminated since the cluster fabric)
//   - internal/sched    — the scheduler interface plus FIFO, GIFT and TBF
//     baselines
//   - internal/bb       — the discrete-event burst-buffer simulator that
//     regenerates every figure of the paper's evaluation, with fabric
//     and stage-out mirrors
//   - internal/cluster  — the multi-server fabric: membership
//     (join/leave/drain/fail), gossip-based λ-sync, failover, and the
//     epoch-versioned cluster-wide policy rumor behind live hot-swap
//   - internal/backing  — stage-out durability: the backing-store
//     interface, the policy-governed drain engine, and crash-restart
//     re-hydration
//   - internal/fsys, internal/storage, internal/chash — the user-space
//     file system substrate (shards, extent store, dirty-range maps,
//     consistent-hash placement)
//   - internal/server, internal/client, internal/transport — the live
//     (socket) server and POSIX-style client, with client-side striping
//   - internal/workload — the request streams of the paper's evaluation
//     (IOR runs, write/read cycles, stat storms)
//   - internal/metrics  — binned throughput series and summary statistics
//     behind every measurement, plus the λ-windowed per-entity share
//     ledger (compiled vs measured shares) behind `policy status`
//   - internal/sim      — the discrete-event engine under the simulator: a
//     virtual clock and a heap of (time, handler) events
//   - internal/apptrace — the §5 application I/O traces (NAMD, WRF, ...)
//   - internal/experiments — one runner per paper table/figure
//
// See README.md for a tour of the repository and ARCHITECTURE.md for the
// end-to-end walkthrough (request path, cluster fabric, stage-out
// pipeline).
package themisio
