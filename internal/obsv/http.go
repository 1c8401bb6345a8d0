package obsv

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
)

// ReadyFunc reports whether the process is ready to serve, and a human
// reason when it is not. /healthz answers 200 when ready and 503
// otherwise, so load balancers (and the future autoscaler) never route
// to a member that answers TCP but refuses requests.
type ReadyFunc func() (bool, string)

// Mux returns the operator endpoint: /metrics renders the registry,
// /healthz answers readiness, and /debug/pprof/* exposes the standard
// profiling hooks. Either argument may be nil, dropping that endpoint
// (a nil ready leaves /healthz always 200 — liveness only).
func Mux(reg *Registry, ready ReadyFunc) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", MetricsHandler(reg))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil {
			if ok, reason := ready(); !ok {
				http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsHandler serves one registry in the text exposition format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteTo(w)
	})
}

// --- structured-logging helpers ------------------------------------------

// ParseLevel maps a -log-level flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obsv: unknown log level %q (want debug|info|warn|error)", s)
}

// NopLogger returns a logger that discards everything without
// formatting it — the Quiet configuration of library components.
// (slog.DiscardHandler needs Go 1.24; go.mod floors at 1.22.)
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }
