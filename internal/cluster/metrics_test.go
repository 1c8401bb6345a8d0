package cluster_test

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/client"
	"themisio/internal/obsv"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// metered wires the operator surface into every server: a registry of
// its own, served over a live HTTP endpoint whose URL is appended to eps.
func metered(t testing.TB, eps *[]string) func(*server.Config) {
	return func(c *server.Config) {
		c.Metrics = obsv.NewRegistry()
		ep := httptest.NewServer(obsv.Mux(c.Metrics, nil))
		t.Cleanup(ep.Close)
		*eps = append(*eps, ep.URL)
	}
}

// scrape GETs url/metrics and returns every sample keyed by its full
// series string (name plus label set, exactly as rendered).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// hasSeries reports whether any series of the family is present.
func hasSeries(m map[string]float64, family string) bool {
	for k := range m {
		if k == family || strings.HasPrefix(k, family+"{") ||
			strings.HasPrefix(k, family+"_bucket{") ||
			k == family+"_sum" || k == family+"_count" ||
			strings.HasPrefix(k, family+"_sum{") || strings.HasPrefix(k, family+"_count{") {
			return true
		}
	}
	return false
}

// shareReport fetches one server's MsgShareReport over the data plane.
func shareReport(t *testing.T, addr string) []transport.ShareRecord {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewConn(raw)
	defer c.Close()
	if err := c.SendRequest(&transport.Request{Type: transport.MsgShareReport, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.RecvResponse()
	if err != nil {
		t.Fatal(err)
	}
	return resp.Shares
}

func sameShares(a, b []transport.ShareRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFabricMetricsLive is the observability acceptance gate: four live
// servers with backing stores are flooded with striped traffic from two
// jobs while each server's /metrics endpoint is scraped. The scrape
// must carry live families from every layer — scheduler, transport,
// worker latency histograms, backing, rebalance, cluster — and the
// per-entity share residual gauges must agree with the MsgShareReport
// wire report to within 0.001; once the flood stops, the device gauges
// must match the shards.
func TestFabricMetricsLive(t *testing.T) {
	// All servers share one backing store so the stage-out families carry
	// real traffic.
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var endpoints []string
	servers, addrs := startFabric(t, listen(t, 4), backed(store), metered(t, &endpoints))

	// Two jobs from different users flood striped writes so every layer
	// carries traffic while the endpoints are scraped.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	mk, err := client.Dial(jobInfo("setup"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mk.Mkdir("/flood"); err != nil {
		t.Fatal(err)
	}
	mk.Close()
	for j := 0; j < 2; j++ {
		c, err := client.DialOpts(jobInfo(fmt.Sprintf("flood%d", j)), addrs, client.Options{
			Stripes: 4, StripeUnit: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j int, c *client.Client) {
			defer wg.Done()
			defer c.Close()
			f, err := c.Open(fmt.Sprintf("/flood/j%d.bin", j), true)
			if err != nil {
				return
			}
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Write(data); err != nil {
					return
				}
				if k%16 == 0 {
					// Keep each file bounded so the shared RAM shards
					// never fill mid-flood.
					c.Unlink(fmt.Sprintf("/flood/j%d.bin", j))
					f, err = c.Open(fmt.Sprintf("/flood/j%d.bin", j), true)
					if err != nil {
						return
					}
				}
			}
		}(j, c)
	}

	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt() // a wait that gives up leaves no writer running

	// Mid-flood: every server's endpoint must carry live series from all
	// six layers.
	perServer := []string{
		"themis_sched_draws_total",
		"themis_sched_pending_requests",
		"themis_sched_served_bytes_total",
		"themis_sched_draw_latency_seconds",
		"themis_server_requests_served_total",
		"themis_server_request_latency_seconds",
		"themis_transport_frames_total",
		"themis_transport_bytes_total",
		"themis_transport_pool_conns_open",
		"themis_transport_pool_picks_total",
		"themis_transport_pool_inflight",
		"themis_storage_capacity_bytes",
		"themis_storage_used_bytes",
		"themis_backing_dirty_bytes",
		"themis_backing_staged_bytes_total",
		"themis_rebalance_epoch",
		"themis_cluster_members_alive",
		"themis_cluster_gossip_rounds_total",
		"themis_share_residual",
	}
	for i, ep := range endpoints {
		i, ep := i, ep
		waitFor(t, 10*time.Second, fmt.Sprintf("live families on server %d", i), func() bool {
			m := scrape(t, ep)
			for _, fam := range perServer {
				if !hasSeries(m, fam) {
					return false
				}
			}
			// Traffic-bearing layers must show real flow, not just
			// registered-but-zero families.
			return m["themis_sched_draws_total"] > 0 &&
				m["themis_server_requests_served_total"] > 0 &&
				m[`themis_transport_frames_total{type="write",dir="in"}`] > 0 &&
				m["themis_sched_draw_latency_seconds_count"] > 0 &&
				m[`themis_server_request_latency_seconds_count{op="write"}`] > 0 &&
				m["themis_cluster_members_alive"] == float64(len(servers)) &&
				m["themis_cluster_gossip_rounds_total"] > 0
		})
	}
	// The drain engine stages dirty bytes out through the scheduler every
	// λ; the staged counter must move on at least one server.
	waitFor(t, 10*time.Second, "staged bytes", func() bool {
		for _, ep := range endpoints {
			if scrape(t, ep)["themis_backing_staged_bytes_total"] > 0 {
				return true
			}
		}
		return false
	})

	// Residual agreement: the share gauges a scrape renders and the
	// MsgShareReport wire report read the same ledger. They are compared
	// mid-flood, where every λ window holds the flood jobs' bytes, so the
	// ledger cannot roll them out of the report; bracketing the scrape
	// with two identical RPC reads rejects a scrape that straddles a roll.
	for i, ep := range endpoints {
		i, ep := i, ep
		waitFor(t, 10*time.Second, fmt.Sprintf("share residual agreement on server %d", i), func() bool {
			before := shareReport(t, addrs[i])
			if len(before) == 0 {
				return false
			}
			m := scrape(t, ep)
			after := shareReport(t, addrs[i])
			if !sameShares(before, after) {
				return false
			}
			seenFlood := false
			for _, e := range before {
				key := fmt.Sprintf("themis_share_residual{kind=%q,id=%q}", e.Kind, e.ID)
				got, ok := m[key]
				if !ok {
					return false
				}
				if math.Abs(got-(e.Measured-e.Compiled)) > 0.001 {
					t.Fatalf("server %d %s/%s: scraped residual %v, wire report %v",
						i, e.Kind, e.ID, got, e.Measured-e.Compiled)
				}
				if e.Kind == "job" && strings.HasPrefix(e.ID, "flood") {
					seenFlood = true
				}
			}
			return seenFlood
		})
	}

	halt()

	// The device gauges: the capacity the server was configured with (the
	// 256 MiB default here) and, now that nothing writes, exactly the
	// bytes the shard's allocator has handed out — the store is mapped
	// outside the heap, so no runtime figure shows either.
	gc, err := client.Dial(jobInfo("gauge"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	if f, err := gc.Open("/flood/gauge.bin", true); err != nil {
		t.Fatal(err)
	} else if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	var used float64
	for i, ep := range endpoints {
		m := scrape(t, ep)
		if got := m["themis_storage_capacity_bytes"]; got != 256<<20 {
			t.Errorf("server %d: themis_storage_capacity_bytes = %v, want %d", i, got, 256<<20)
		}
		if got, want := m["themis_storage_used_bytes"], float64(servers[i].Shard().Used()); got != want {
			t.Errorf("server %d: themis_storage_used_bytes = %v, the shard says %v", i, got, want)
		}
		used += m["themis_storage_used_bytes"]
	}
	if used < float64(len(data)) {
		t.Errorf("themis_storage_used_bytes sums to %v across the fabric, which holds a %d-byte file", used, len(data))
	}
}
