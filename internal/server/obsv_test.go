package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/obsv"
	"themisio/internal/policy"
)

// brokenStore fails every Manifest read — the boot-time re-hydration
// error path.
type brokenStore struct{}

func (brokenStore) WriteRange(backing.FileMeta, int64, []byte) error { return nil }
func (brokenStore) ReadRange(backing.FileMeta, int64, []byte) (int, error) {
	return 0, backing.ErrNotStaged
}
func (brokenStore) DeleteObject(string, string, int) error { return nil }
func (brokenStore) Manifest() ([]backing.FileMeta, error) {
	return nil, fmt.Errorf("device gone")
}

// A healthy server is ready; /healthz answers 200 and flips to 503
// after Close.
func TestHealthzReadyLifecycle(t *testing.T) {
	reg := obsv.NewRegistry()
	srv := startFabric(t, listen(t, 1), func(c *Config) { c.Lambda, c.Metrics = 500*time.Millisecond, reg })[0]
	ep := httptest.NewServer(obsv.Mux(reg, srv.Ready))
	defer ep.Close()

	resp, err := http.Get(ep.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz on a live server: %d, want 200", resp.StatusCode)
	}

	srv.Close()
	resp, err = http.Get(ep.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after Close: %d, want 503", resp.StatusCode)
	}
}

// A failed re-hydration must leave the server scrapeable but not ready:
// Serve refuses (the existing contract), Ready carries the boot error,
// /healthz answers 503 with the reason, and /metrics still renders the
// full family set — the operator's view into why the server is down.
func TestHealthz503OnBootError(t *testing.T) {
	ln := listen(t, 1)[0]
	defer ln.Close()
	reg := obsv.NewRegistry()
	srv := New(ln, Config{
		Policy: policy.SizeFair, Quiet: true,
		Backing: brokenStore{}, Metrics: reg,
	})
	if srv.BootErr() == nil {
		t.Fatal("broken store must produce a boot error")
	}
	if ok, reason := srv.Ready(); ok || !strings.Contains(reason, "boot failed") {
		t.Fatalf("Ready() = %v, %q; want not ready with a boot-failed reason", ok, reason)
	}
	srv.Serve() // must return immediately, refusing to serve

	ep := httptest.NewServer(obsv.Mux(reg, srv.Ready))
	defer ep.Close()
	resp, err := http.Get(ep.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on boot failure: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), "device gone") {
		t.Fatalf("/healthz body %q does not carry the boot error", body[:n])
	}

	resp, err = http.Get(ep.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	for _, fam := range []string{
		"themis_sched_pending_requests",
		"themis_backing_dirty_bytes",
		"themis_rebalance_epoch",
		"themis_cluster_members_alive",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("/metrics on a boot-failed server is missing %s", fam)
		}
	}
}
