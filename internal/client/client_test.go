package client

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/server"
)

// startServers launches n standalone live servers (client-side striping
// needs no server fabric: placement is the client's ring).
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(ln, server.Config{
			Policy: policy.SizeFair,
			Lambda: 50 * time.Millisecond,
			Seed:   int64(i + 1),
			Quiet:  true,
		})
		go s.Serve()
		t.Cleanup(s.Close)
		addrs[i] = s.Addr()
	}
	return addrs
}

func testJob(id string) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: 2}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(testJob("j"), nil); err == nil {
		t.Fatal("Dial with no servers should fail")
	}
	// A dead address fails fast (nothing listens on a closed listener).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := Dial(testJob("j"), []string{dead}); err == nil {
		t.Fatal("Dial to a dead server should fail")
	}
}

func TestPerServerRouting(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := Dial(testJob("route"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Paths spread over servers by the consistent hash; every file must
	// land on exactly one server and read back from it.
	owners := map[string]bool{}
	for _, name := range []string{"/d/a", "/d/b", "/d/c", "/d/e", "/d/f", "/d/g"} {
		f, err := c.Open(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := f.Write([]byte(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		owner, _ := c.ring.Lookup(name)
		owners[owner] = true
		got := make([]byte, 64)
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		n, err := f.Read(got)
		if err != nil || string(got[:n]) != name {
			t.Fatalf("%s: read %q err=%v", name, got[:n], err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("6 paths all routed to %d server(s)", len(owners))
	}
	// Readdir merges every server's children.
	names, err := c.Readdir("/d")
	if err != nil || len(names) != 6 {
		t.Fatalf("Readdir = %v err=%v", names, err)
	}
}

func TestClientErrorPaths(t *testing.T) {
	addrs := startServers(t, 2)
	c, err := Dial(testJob("errs"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/nope", false); err == nil {
		t.Fatal("opening a missing file should fail")
	}
	if err := c.Unlink("/nope"); err == nil {
		t.Fatal("unlink of a missing file should fail")
	}
	f, err := c.Open("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 9); err == nil || !strings.Contains(err.Error(), "whence") {
		t.Fatalf("bad whence error = %v", err)
	}
	if err := c.Mkdir("/missing/parent"); err == nil {
		t.Fatal("mkdir under a missing parent should fail")
	}
	if _, err := c.Readdir("/f"); err == nil {
		t.Fatal("readdir of a file should fail")
	}
}

func TestStripedRoundTrip(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := DialOpts(testJob("stripe"), addrs, Options{Stripes: 3, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/striped", true)
	if err != nil {
		t.Fatal(err)
	}
	// Appends of awkward sizes: unit-straddling, sub-unit, multi-unit.
	var want []byte
	for i, sz := range []int{1000, 3000, 50000, 24, 8192} {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, sz)
		for j := range chunk {
			chunk[j] ^= byte(j * 17)
		}
		if n, err := f.Write(chunk); err != nil || n != sz {
			t.Fatalf("write %d: n=%d err=%v", sz, n, err)
		}
		want = append(want, chunk...)
	}
	if size, _, err := c.Stat("/striped"); err != nil || size != int64(len(want)) {
		t.Fatalf("stat = %d err=%v, want %d", size, err, len(want))
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.Read(got); err != nil || n != len(want) {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("striped data mismatch")
	}
	// Interior unaligned reads across stripe boundaries.
	for _, rg := range [][2]int{{0, 10}, {1020, 9}, {1000, 3000}, {50000, 12000}, {62200, 100}} {
		off, ln := rg[0], rg[1]
		if _, err := f.Seek(int64(off), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, ln)
		n, err := f.Read(buf)
		if err != nil {
			t.Fatalf("read [%d,%d): %v", off, off+ln, err)
		}
		exp := want[off:min(off+ln, len(want))]
		if !bytes.Equal(buf[:n], exp) {
			t.Fatalf("read [%d,%d) mismatch (n=%d)", off, off+ln, n)
		}
	}
	// Reading past EOF is io.EOF.
	if _, err := f.Seek(int64(len(want))+100, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Read(make([]byte, 8)); err != io.EOF || n != 0 {
		t.Fatalf("past-EOF read: n=%d err=%v", n, err)
	}
	// Open the same file fresh: the size comes from summed stripe stats.
	f2, err := c.Open("/striped", false)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := f2.Seek(0, 2); err != nil || off != int64(len(want)) {
		t.Fatalf("seek-end = %d err=%v", off, err)
	}
	// Unlink removes every stripe.
	if err := c.Unlink("/striped"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stat("/striped"); err == nil {
		t.Fatal("stat after unlink should fail")
	}
}

func TestClientFailover(t *testing.T) {
	addrs := startServers(t, 2)
	// A third, doomed server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doomed := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go doomed.Serve()
	c, err := Dial(testJob("fo"), append(addrs, doomed.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Servers()); got != 3 {
		t.Fatalf("client sees %d servers, want 3", got)
	}
	doomed.Close()
	// Every path stays writable: the client reroutes to the reassigned
	// ring owner after the dead connection errors out. Enough distinct
	// paths guarantees some hash to the dead server's segment.
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("/f%02d", i)
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			f, err := c.Open(name, true)
			if err != nil {
				lastErr = err
				continue
			}
			if _, err := f.Write([]byte(name)); err != nil {
				lastErr = err
				continue
			}
			ok = true
		}
		if !ok {
			t.Fatalf("%s unwritable after failover: %v", name, lastErr)
		}
	}
	if got := len(c.Servers()); got != 2 {
		t.Fatalf("client sees %d servers after failover, want 2", got)
	}
}

// Stripe width lives in the file's metadata, not the client's flags: a
// client with a different (or default) striping configuration must see
// the right size and read the right bytes.
func TestStripeWidthInterop(t *testing.T) {
	addrs := startServers(t, 3)
	w, err := DialOpts(testJob("writer"), addrs, Options{Stripes: 3, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := bytes.Repeat([]byte("striped-interop/"), 4096) // 64 KiB
	f, err := w.Open("/interop", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}

	// A default (unstriped) client reads the same file correctly.
	r, err := Dial(testJob("reader"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if size, _, err := r.Stat("/interop"); err != nil || size != int64(len(want)) {
		t.Fatalf("interop stat = %d err=%v, want %d", size, err, len(want))
	}
	rf, err := r.Open("/interop", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := rf.Read(got); err != nil || n != len(want) {
		t.Fatalf("interop read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("interop read mismatch")
	}
	if err := r.Unlink("/interop"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Stat("/interop"); err == nil {
		t.Fatal("unlink by the unstriped client should remove every stripe")
	}
}

// POSIX lseek: a resulting offset below zero is EINVAL, with the
// handle unmoved — the old behaviour silently clamped to zero, so a
// caller's off-by-N seek bug quietly reread the file head. Regression
// for the whence 0/1 arithmetic; whence 2 keeps resolving end-of-file
// through Stat and refuses a negative result the same way.
func TestLseekNegative(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Dial(testJob("seek"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/seek", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(-1, 0); err == nil {
		t.Fatal("whence 0 to a negative offset must fail")
	}
	if off, err := f.Seek(4, 0); err != nil || off != 4 {
		t.Fatalf("seek-set = %d err=%v", off, err)
	}
	if _, err := f.Seek(-5, 1); err == nil {
		t.Fatal("whence 1 producing a negative offset must fail")
	}
	// The failed seeks must not have moved the handle.
	if off, err := f.Seek(0, 1); err != nil || off != 4 {
		t.Fatalf("offset after refused seeks = %d err=%v, want 4", off, err)
	}
	if _, err := f.Seek(-11, 2); err == nil {
		t.Fatal("whence 2 producing a negative offset must fail")
	}
	if off, err := f.Seek(-10, 2); err != nil || off != 0 {
		t.Fatalf("seek-end -size = %d err=%v, want 0", off, err)
	}
}

// fsys.LocalLen is the invariant the write-repair path leans on: the local
// stripe lengths of a round-robin layout must always sum to the total
// and match a brute-force unit walk.
func TestLocalLen(t *testing.T) {
	for _, tc := range []struct {
		total int64
		n     int
		unit  int64
	}{
		{0, 3, 1024}, {1, 3, 1024}, {1024, 3, 1024}, {1025, 3, 1024},
		{3 * 1024, 3, 1024}, {10*1024 + 7, 3, 1024}, {65536, 4, 4096},
		{999999, 5, 4096}, {5, 1, 1024},
	} {
		var sum int64
		brute := make([]int64, tc.n)
		for off := int64(0); off < tc.total; {
			u := off / tc.unit
			n := tc.unit - off%tc.unit
			if n > tc.total-off {
				n = tc.total - off
			}
			brute[int(u)%tc.n] += n
			off += n
		}
		for i := 0; i < tc.n; i++ {
			got := fsys.LocalLen(tc.total, i, tc.n, tc.unit)
			if got != brute[i] {
				t.Fatalf("LocalLen(%d,%d,%d,%d) = %d, want %d",
					tc.total, i, tc.n, tc.unit, got, brute[i])
			}
			sum += got
		}
		if sum != tc.total {
			t.Fatalf("LocalLen over %+v sums to %d", tc, sum)
		}
	}
}

// bruteLocalLens walks the round-robin layout unit by unit — the
// reference implementation the closed form must match.
func bruteLocalLens(total int64, n int, unit int64) []int64 {
	out := make([]int64, n)
	for off := int64(0); off < total; {
		u := off / unit
		step := unit - off%unit
		if step > total-off {
			step = total - off
		}
		out[int(u)%n] += step
		off += step
	}
	return out
}

// Property test over randomized (total, nStripes, unit): the
// rebalancer's migration planner and the write-repair path both lean
// on fsys.LocalLen agreeing with the brute-force unit walk for arbitrary
// geometries, including totals far from cycle boundaries and units
// down to a single byte.
func TestLocalLenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(9)
		unit := int64(1 + rng.Intn(1<<13))
		var total int64
		switch rng.Intn(4) {
		case 0:
			total = int64(rng.Intn(10)) // tiny files
		case 1:
			total = unit * int64(n) * int64(rng.Intn(8)) // exact cycles
		case 2:
			total = unit*int64(n)*int64(rng.Intn(8)) + int64(rng.Intn(int(unit))) // mid-unit tail
		default:
			total = int64(rng.Intn(1 << 20))
		}
		brute := bruteLocalLens(total, n, unit)
		var sum int64
		for i := 0; i < n; i++ {
			got := fsys.LocalLen(total, i, n, unit)
			if got != brute[i] {
				t.Fatalf("iter %d: LocalLen(%d,%d,%d,%d) = %d, want %d",
					iter, total, i, n, unit, got, brute[i])
			}
			if got < 0 {
				t.Fatalf("iter %d: negative local length %d", iter, got)
			}
			sum += got
		}
		if sum != total {
			t.Fatalf("iter %d: lengths sum to %d, want %d", iter, sum, total)
		}
	}
}
