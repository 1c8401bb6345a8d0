// Command themisd runs a live ThemisIO burst-buffer server.
//
// Usage:
//
//	themisd -listen 127.0.0.1:7000 -policy size-fair
//	themisd -listen 127.0.0.1:7001 -policy size-fair -join 127.0.0.1:7000
//	themisd -listen 127.0.0.1:7002 -policy size-fair -join 127.0.0.1:7000 -gossip-fanout 3
//	themisd -listen 127.0.0.1:7003 -policy size-fair -join 127.0.0.1:7000 -backing /pfs/bb
//	themisd -listen 127.0.0.1:7004 -policy size-fair -metrics-addr 127.0.0.1:9100
//
// The sharing policy is the single administrator-facing parameter the
// paper describes; any primitive or composite policy string parses
// (fifo, job-fair, user-fair, size-fair, priority-fair,
// user-then-size-fair, group-then-user-then-size-fair, ...).
//
// A server joins the cluster fabric through any live member (-join);
// membership, job tables, and failures then spread by gossip — each
// server exchanges with -gossip-fanout random peers per λ, not with
// every peer. On SIGTERM the server leaves gracefully so its ring
// segment reassigns immediately instead of after the failure timeout.
//
// With -backing, the server stages dirty data out to the given
// directory (the stand-in for the parallel file system behind the burst
// buffer) in the background — under the sharing policy, as a synthetic
// stage-out job — re-hydrates its shard from it on start, and reads a
// failed peer's stripes from it while the survivors re-stripe that
// peer's files over themselves. A graceful shutdown flushes before
// leaving. See docs/OPERATIONS.md.
//
// When a member joins, existing file layouts are migrated onto the
// grown ring (-rebalance, on by default): migration traffic runs as a
// synthetic rebalance job through the token scheduler, so the sharing
// policy caps it against foreground I/O. Watch progress with
// `themisctl rebalance status`.
//
// With -metrics-addr, the server exposes its operator endpoint there:
// GET /metrics in the Prometheus text format (every fabric layer —
// scheduler, transport, workers, backing, rebalance, cluster, and the
// per-entity share ledger), GET /healthz for readiness (503 while
// re-hydrating or after a failed boot), and /debug/pprof for profiles.
// Logs are structured (-log-level debug|info|warn|error). See
// docs/OPERATIONS.md for the monitoring runbook.
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"themisio/internal/backing"
	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "listen address")
	polStr := flag.String("policy", "size-fair", "sharing policy")
	workers := flag.Int("workers", 4, "worker pool size")
	capacity := flag.Int64("capacity", 256<<20, "storage device bytes")
	join := flag.String("join", "", "comma-separated addresses of existing cluster members")
	fanout := flag.Int("gossip-fanout", 0, "random peers gossiped with per λ round (0 = default)")
	backingDir := flag.String("backing", "", "backing-store directory for stage-out durability (empty = volatile)")
	rebalance := flag.Bool("rebalance", true, "migrate existing stripes onto joining members (policy-governed)")
	metricsAddr := flag.String("metrics-addr", "", "operator endpoint address for /metrics, /healthz and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	level, err := obsv.ParseLevel(*logLevel)
	if err != nil {
		slog.Error("themisd: bad -log-level", "err", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	dlog := logger.With("component", "themisd")
	fatal := func(msg string, err error) {
		dlog.Error(msg, "err", err)
		os.Exit(1)
	}

	pol, err := policy.Parse(*polStr)
	if err != nil {
		fatal("bad -policy", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen failed", err)
	}
	var seeds []string
	if *join != "" {
		seeds = strings.Split(*join, ",")
	}
	cfg := server.Config{
		Policy:            pol,
		Workers:           *workers,
		Capacity:          *capacity,
		Join:              seeds,
		GossipFanout:      *fanout,
		RebalanceDisabled: !*rebalance,
		Logger:            logger,
	}
	if *backingDir != "" {
		store, err := backing.OpenDir(*backingDir)
		if err != nil {
			fatal("backing store open failed", err)
		}
		cfg.Backing = store
	}

	// The operator endpoint comes up before server.New so that /healthz
	// answers 503 ("initializing") during a potentially long backing-store
	// re-hydration instead of refusing connections.
	var srvPtr atomic.Pointer[server.Server]
	if *metricsAddr != "" {
		reg := obsv.NewRegistry()
		cfg.Metrics = reg
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("metrics listen failed", err)
		}
		mux := obsv.Mux(reg, func() (bool, string) {
			s := srvPtr.Load()
			if s == nil {
				return false, "initializing: rehydrating from backing store"
			}
			return s.Ready()
		})
		go func() {
			if err := (&http.Server{Handler: mux}).Serve(mln); err != nil {
				dlog.Error("operator endpoint failed", "err", err)
			}
		}()
		dlog.Info("operator endpoint up", "metrics_addr", mln.Addr().String())
	}

	srv := server.New(ln, cfg)
	srvPtr.Store(srv)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if err := srv.BootErr(); err != nil {
		if *metricsAddr == "" {
			fatal("boot failed", err)
		}
		// Keep the operator endpoint up for diagnosis: /healthz reports
		// 503 with the boot error, /metrics still renders. Serving is
		// refused until an operator intervenes.
		dlog.Error("boot failed; serving refused, operator endpoint stays up", "err", err)
		<-sig
		os.Exit(1)
	}
	dlog.Info("serving", "addr", srv.Addr(), "policy", pol.String(), "workers", *workers)

	go func() {
		<-sig
		dlog.Info("leaving cluster and shutting down", "served", srv.Served())
		srv.Leave()
		os.Exit(0)
	}()
	srv.Serve()
}
