package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/experiments"
	"themisio/internal/policy"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// joinServers starts extra servers that join an existing fabric through
// seed.
func joinServers(t testing.TB, n int, seed string) []*server.Server {
	t.Helper()
	out := make([]*server.Server, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = joinOn(t, ln, int64(100+i), seed)
	}
	return out
}

// joinOn boots a server on ln that joins the fabric through seed.
func joinOn(t testing.TB, ln net.Listener, rngSeed int64, seed string) *server.Server {
	s := server.New(ln, server.Config{
		Policy:       policy.SizeFair,
		Lambda:       itLambda,
		FailTimeout:  6 * itLambda,
		GossipFanout: 1,
		Seed:         rngSeed,
		Join:         []string{seed},
		Quiet:        true,
	})
	go s.Serve()
	t.Cleanup(s.Close)
	return s
}

// waitConverged waits until every server sees want alive members.
func waitConverged(t testing.TB, servers []*server.Server, want int) {
	t.Helper()
	waitFor(t, 10*time.Second, "membership convergence", func() bool {
		for _, s := range servers {
			n := 0
			for _, m := range s.Cluster().Membership().Snapshot() {
				if m.State == cluster.StateAlive {
					n++
				}
			}
			if n != want {
				return false
			}
		}
		return true
	})
}

// waitRebalanced waits until every server's migrator has reconciled its
// own current ring epoch with no pending work, held across consecutive
// polls so a settle racing a just-arrived epoch bump is not mistaken
// for convergence. (Epochs are per-view flip counters, so they are
// compared per server, never across servers.)
func waitRebalanced(t testing.TB, servers []*server.Server) {
	t.Helper()
	stable := 0
	waitFor(t, 20*time.Second, "rebalance settle", func() bool {
		for _, s := range servers {
			if !s.Migrator().Settled(s.Cluster().Membership().Epoch()) {
				stable = 0
				return false
			}
		}
		stable++
		return stable >= 3
	})
}

// TestFabricRebalance is the acceptance walkthrough of elastic
// scale-out: a 4-server cluster with existing striped and unstriped
// files, two more servers join, and the policy-governed migration
// moves every diverged layout onto the grown ring — while concurrent
// readers (including one holding a file descriptor opened before the
// join) observe every byte, with zero errors, throughout.
func TestFabricRebalance(t *testing.T) {
	servers, addrs := startFabric(t, 4)
	waitConverged(t, servers, 4)

	// Existing data: unstriped files spread over the ring plus files
	// striped across the original fabric.
	w, err := client.Dial(jobInfo("writer"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/data/plain%d.bin", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 60_000+i*1_000)
		for j := range data {
			data[j] ^= byte(j * 13)
		}
		files[p] = data
		f, err := w.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
	}
	ws, err := client.DialOpts(jobInfo("striper"), addrs, client.Options{Stripes: 4, StripeUnit: 4096, ConnsPerServer: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/data/striped%d.bin", i)
		data := make([]byte, 300_000+i*10_000)
		for j := range data {
			data[j] = byte(j*31 + i)
		}
		files[p] = data
		f, err := ws.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("striped write %s: n=%d err=%v", p, n, err)
		}
	}
	ws.Close()
	before := map[string][]string{}
	for p := range files {
		if before[p], _, err = w.Layout(p); err != nil {
			t.Fatal(err)
		}
	}

	// A handle opened before the join survives the layout rewrite: the
	// stale-layout answer makes it re-stat and retry (satellite fix for
	// the frozen per-handle stripe set).
	held, err := client.DialOpts(jobInfo("holder"), addrs, client.Options{Stripes: 4, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	heldFile, err := held.Open("/data/striped0.bin", false)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent readers hammer the files across the join: migration
	// must be invisible — every read byte-identical, zero errors.
	reader, err := client.Dial(jobInfo("reader"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	var stop atomic.Bool
	var readerErr atomic.Value
	var wg sync.WaitGroup
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := paths[(i+g)%len(paths)]
				want := files[p]
				f, err := reader.Open(p, false)
				if err != nil {
					readerErr.Store(fmt.Errorf("open %s: %w", p, err))
					return
				}
				got := make([]byte, len(want))
				total, err := io.ReadFull(f, got)
				f.Close()
				if err != nil || !bytes.Equal(got, want) {
					readerErr.Store(fmt.Errorf("read %s: %d/%d bytes, err=%v, content match=%v",
						p, total, len(want), err, bytes.Equal(got[:total], want[:total])))
					return
				}
			}
		}(g)
	}

	// Scale out: two more servers join; every fabric member must see
	// six alive and settle its migrations against the grown ring.
	joined := joinServers(t, 2, addrs[0])
	all := append(append([]*server.Server{}, servers...), joined...)
	newAddrs := []string{joined[0].Addr(), joined[1].Addr()}
	waitConverged(t, all, 6)
	waitRebalanced(t, all)

	stop.Store(true)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatalf("concurrent reader failed during rebalance: %v", err)
	}

	// Every file reads back byte-identical through a fresh client of
	// the full fabric.
	fresh, err := client.Dial(jobInfo("verifier"), append(append([]string{}, addrs...), newAddrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	readBack := func(c *client.Client, p string, want []byte) error {
		f, err := c.Open(p, false)
		if err != nil {
			return err
		}
		defer f.Close()
		got := make([]byte, len(want))
		if total, err := io.ReadFull(f, got); err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("%s: %d/%d bytes, err=%v, equal=%v", p, total, len(want), err, bytes.Equal(got, want))
		}
		return nil
	}
	for p, want := range files {
		if err := readBack(fresh, p, want); err != nil {
			t.Fatalf("post-rebalance content: %v", err)
		}
	}

	// Every recorded layout now matches the grown ring's walk — the new
	// members own exactly their ring share of stripes, which is ≥ the
	// share the acceptance bar asks for.
	ring := servers[0].Cluster().Membership().Ring()
	newOwned, movedFiles, movedStripes := 0, 0, 0
	for p := range files {
		_, _, err := fresh.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		set, stripes, err := fresh.Layout(p)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := ring.LookupN(p, stripes)
		if len(set) != len(wantSet) {
			t.Fatalf("%s: recorded set %v, ring wants %v", p, set, wantSet)
		}
		for i := range set {
			if set[i] != wantSet[i] {
				for _, s := range all {
					f, b, e, pd := s.Migrator().Stats()
					t.Logf("server %s: files=%d bytes=%d errs=%d pending=%d planned=%d memEpoch=%d lastErr=%v",
						s.Addr(), f, b, e, pd, s.Migrator().Epoch(), s.Cluster().Membership().Epoch(), s.Migrator().LastErr())
				}
				t.Fatalf("%s: recorded set %v diverges from ring %v", p, set, wantSet)
			}
			if set[i] == newAddrs[0] || set[i] == newAddrs[1] {
				newOwned++
			}
			if set[i] != before[p][i] {
				movedStripes++
			}
		}
		if !slices.Equal(set, before[p]) {
			movedFiles++
		}
	}
	if newOwned == 0 {
		t.Fatal("joined servers own zero stripes after rebalance")
	}
	migrated := int64(0)
	for _, s := range all {
		f, _, _, _ := s.Migrator().Stats()
		migrated += f
	}
	t.Logf("joined servers own %d stripes across %d files; the join re-homed %d files and %d stripes, in %d file migrations",
		newOwned, len(files), movedFiles, movedStripes, migrated)

	// The pre-join handle reads the full migrated file through its old
	// f (stale-layout → re-stat → retry), then appends through it and
	// reads the tail back.
	want := files["/data/striped0.bin"]
	if _, err := heldFile.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if total, err := io.ReadFull(heldFile, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("held-handle content: %d/%d bytes, err=%v, equal=%v", total, len(want), err, bytes.Equal(got, want))
	}
	tail := bytes.Repeat([]byte{0xEE}, 9000)
	if n, err := heldFile.Write(tail); err != nil || n != len(tail) {
		t.Fatalf("held-handle append: n=%d err=%v", n, err)
	}
	want = append(append([]byte{}, want...), tail...)
	if err := readBack(fresh, "/data/striped0.bin", want); err != nil {
		t.Fatalf("post-append content: %v", err)
	}

	// Unlink through the migrated layout still removes every stripe.
	if err := fresh.Unlink("/data/plain0.bin"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.Stat("/data/plain0.bin"); err == nil {
		t.Fatal("stat after unlink should fail")
	}
	w.Close()
}

// TestRebalanceShareTracksPolicy pins the acceptance bar for
// migration bandwidth: the measured rebalance share must track the
// compiled policy share within ±0.002 — what the token sequence
// delivers. The deterministic simulator provides the measurement
// (live-socket timing is too noisy to assert a two-decimal share); the
// live fabric above proves the same code path moves real bytes.
func TestRebalanceShareTracksPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sharing sweep")
	}
	m := experiments.Rebalance().Metrics
	if s := m["sizefair_migration_share"]; s < 0.248 || s > 0.252 {
		t.Fatalf("size-fair migration share = %.4f, want 0.25±0.002", s)
	}
	if s := m["jobfair_migration_share"]; s < 0.498 || s > 0.502 {
		t.Fatalf("job-fair migration share = %.4f, want 0.50±0.002", s)
	}
}

// TestMigrationReleasesLeases: every peer reply of a stripe migration —
// 1 MiB stripe fetches, install/commit/drop acks, the gossip pulls in
// between — goes back to the lease pool after its last touch. With
// lease poisoning armed a reply released too early corrupts the
// migrated bytes; a reply never released shows up as lease misses
// growing with every chunk moved.
func TestMigrationReleasesLeases(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	servers, addrs := startFabric(t, 2)
	waitConverged(t, servers, 2)

	const fileBytes = 3 << 20
	w, err := client.DialOpts(jobInfo("lease-writer"), addrs, client.Options{Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/lease%02d.bin", i)
		data := make([]byte, fileBytes)
		for j := range data {
			data[j] = byte(j*29 + i)
		}
		files[p] = data
		f, err := w.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
		f.Close()
	}
	movedBytes := func(all []*server.Server) (n int64) {
		for _, s := range all {
			_, b, _, _ := s.Migrator().Stats()
			n += b
		}
		return n
	}

	// Warm-up: the first join's migrations fill the lease classes.
	all := append(servers, joinServers(t, 1, addrs[0])...)
	waitConverged(t, all, 3)
	waitRebalanced(t, all)
	moved0 := movedBytes(all)
	_, misses0 := transport.LeaseStats()

	// Measured: a second join moves more stripes through the warm pool.
	all = append(all, joinServers(t, 1, addrs[0])...)
	waitConverged(t, all, 4)
	waitRebalanced(t, all)
	movedMiB := (movedBytes(all) - moved0) >> 20
	_, misses1 := transport.LeaseStats()
	if movedMiB < 3 {
		t.Fatalf("second join moved %d MiB, want at least one file", movedMiB)
	}
	// Unreleased, every moved MiB costs a miss or more (one per fetched
	// chunk, one per install ack); released, only what a GC cycle
	// clears out of the pool is ever re-allocated.
	grew := misses1 - misses0
	t.Logf("second join migrated %d MiB; lease misses grew by %d", movedMiB, grew)
	if grew > movedMiB/2 && !raceEnabled {
		t.Fatalf("lease misses grew by %d while %d MiB migrated through a warm pool", grew, movedMiB)
	}

	var fresh []string
	for _, s := range all {
		fresh = append(fresh, s.Addr())
	}
	r, err := client.Dial(jobInfo("lease-reader"), fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for p, want := range files {
		f, err := r.Open(p, false)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if n, err := io.ReadFull(f, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after two migrations: %d/%d bytes, err=%v, equal=%v", p, n, len(want), err, bytes.Equal(got, want))
		}
		f.Close()
	}
}
