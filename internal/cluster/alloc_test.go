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
	servers, addrs := startFabric(t, listen(t, 1), func(c *server.Config) { c.RebalanceDisabled = true })
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
	wide, err := c.Open("/budget-64k", true)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 13)
	}
	appendWide := func() {
		if _, err := wide.Write(big); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		appendWide()
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
	wr, err := c.Open("/budget-64k", false)
	if err != nil {
		t.Fatal(err)
	}
	gotWide := make([]byte, 64<<10)
	readWide := func() {
		if _, err := wr.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if n, err := wr.Read(gotWide); err != nil || n != len(gotWide) {
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
		// A payload of 8 KiB or more is read straight into a reserved
		// extent and adopted there, which allocates nothing: 5, as on the
		// commit before placement. The ceiling leaves one, not three: a
		// placement must not box its token into an interface per request.
		{"64 KiB append", appendWide, 6},
		// A read's reply lands straight in the caller's buffer: no frame is
		// leased, and the one allocation added to the 4 KiB read (6 on the
		// commit before) is the span list naming where it lands. 7 at
		// 64 KiB too; the ceiling leaves one.
		{"4 KiB read", readOne, 9},
		{"64 KiB read", readWide, 8},
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
