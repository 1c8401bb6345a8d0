package cluster_test

import (
	"io"
	"testing"

	"themisio/internal/client"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// TestRequestAllocationBudget pins what one small call costs the whole
// process — client, wire and server share it — in heap allocations once
// the pools are warm. The ceilings are what the recycling reaches plus
// three: a request path that starts feeding the collector again fails
// here before it shows in small_rw.
func TestRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and sync.Pool drops Puts under it")
	}
	servers, addrs := startFabric(t, 1, func(c *server.Config) { c.RebalanceDisabled = true })
	waitConverged(t, servers, 1)
	c, err := client.DialOpts(jobInfo("budget"), addrs, client.Options{Stripes: 1, StripeUnit: 64 << 10, ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/budget", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	appendOne := func() {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ { // warm-up: pools, maps, the index's backing array
		appendOne()
	}
	r, err := c.Open("/budget", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	readOne := func() {
		if _, err := r.Seek(64<<10, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if n, err := r.Read(got); err != nil || n != len(got) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
	}
	statOne := func() {
		if _, _, err := c.Stat("/budget"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	churnOne := func() {
		f, err := c.Open("/d/file-000123", true)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := c.Unlink("/d/file-000123"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		call    func()
		ceiling float64
	}{
		// Measured 5, 6, 4 and 25 (the parent commit: 23, 25, 20 and 63);
		// each ceiling is what was reached plus three. What is left is the
		// client's per-call bookkeeping (span and error slices, the file
		// handle), replies the caller keeps, and the entry a create makes.
		{"4 KiB append", appendOne, 8},
		{"4 KiB read", readOne, 9},
		{"stat", statOne, 7},
		{"create and unlink", churnOne, 28},
		{"lease and release", func() { transport.Release(transport.Lease(4096)) }, 0},
	} {
		tc.call()
		n := testing.AllocsPerRun(2000, tc.call)
		t.Logf("%s: %.1f allocations", tc.name, n)
		if n > tc.ceiling {
			t.Errorf("%s costs %.1f allocations process-wide, ceiling %.0f", tc.name, n, tc.ceiling)
		}
	}
}
