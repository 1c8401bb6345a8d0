package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/chash"
	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// startBackedFabric launches n live servers sharing one backing store —
// the deployment shape of a real burst buffer in front of a PFS.
func startBackedFabric(t testing.TB, n int, store backing.Store) ([]*server.Server, []string) {
	t.Helper()
	servers := make([]*server.Server, n)
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		cfg := server.Config{
			Policy:       policy.SizeFair,
			Lambda:       itLambda,
			FailTimeout:  6 * itLambda,
			GossipFanout: 1,
			Seed:         int64(i + 1),
			Backing:      store,
			Quiet:        true,
		}
		if i > 0 {
			cfg.Join = []string{addrs[0]}
		}
		servers[i] = server.New(lns[i], cfg)
		go servers[i].Serve()
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	return servers, addrs
}

// TestFabricDurability is the acceptance walkthrough of the stage-out
// subsystem: a 4-server cluster over one backing store, files written
// and flushed, one server killed without a goodbye — and clients read
// every byte back after the survivors re-hydrate the dead member's ring
// segment from the backing store. Before this subsystem, a failed
// member lost every byte it held (TestFabricLive asserts only that
// routing survives).
func TestFabricDurability(t *testing.T) {
	transport.SetLeasePoison(true) // scribble released frames and recycled messages
	defer transport.SetLeasePoison(false)
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startBackedFabric(t, 4, store)

	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		for _, s := range servers {
			n := 0
			for _, m := range s.Cluster().Membership().Snapshot() {
				if m.State == cluster.StateAlive {
					n++
				}
			}
			if n != len(servers) {
				return false
			}
		}
		return true
	})

	// Unstriped files spread over the ring (some land on every server),
	// plus one file striped across all four — the dead server will hold
	// whole files and single stripes.
	c, err := client.Dial(jobInfo("writer"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/data/f%d.bin", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 100_000+i*1_000)
		files[p] = data
		f, err := c.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
	}
	cs, err := client.DialOpts(jobInfo("striper"), addrs, client.Options{Stripes: 4, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	striped := make([]byte, 1<<20)
	for i := range striped {
		striped[i] = byte(i * 131)
	}
	f, err := cs.Open("/data/striped.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(striped); err != nil || n != len(striped) {
		t.Fatalf("striped write: n=%d err=%v", n, err)
	}
	files["/data/striped.bin"] = striped

	// Durability barrier: every dirty byte reaches the backing store.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	cs.Close()
	c.Close()

	// Kill server 3 without a goodbye; survivors must confirm the
	// failure and re-hydrate its ring segment from the backing store.
	dead := addrs[3]
	servers[3].Close()
	waitFor(t, 5*time.Second, "failure detection", func() bool {
		for _, s := range servers[:3] {
			m, ok := s.Cluster().Membership().Lookup(dead)
			if !ok || m.State != cluster.StateFailed {
				return false
			}
		}
		return true
	})

	// A fresh client of the survivors reads every file back
	// byte-identical. Recovery is asynchronous (one λ behind failure
	// confirmation), so poll until all contents match.
	cr, err := client.Dial(jobInfo("reader"), addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	readBack := func(p string, want []byte) bool {
		f, err := cr.Open(p, false)
		if err != nil {
			return false
		}
		defer f.Close()
		got := make([]byte, len(want))
		_, err = io.ReadFull(f, got)
		return err == nil && bytes.Equal(got, want)
	}
	waitFor(t, 10*time.Second, "post-failover content recovery", func() bool {
		for p, want := range files {
			if !readBack(p, want) {
				return false
			}
		}
		return true
	})

	// The namespace recovered too: children whose directory entry lived
	// only on the dead server are re-registered by the adopting owner.
	names, err := cr.Readdir("/data")
	if err != nil || len(names) != len(files) {
		t.Fatalf("post-recovery readdir: %v (err=%v), want %d entries", names, err, len(files))
	}
}

// TestFabricFailoverKeepsWidth: four servers over one backing store hold
// width-3 files, flushed, each then grown by one unstaged unit on a
// survivor; one server is killed without a goodbye. Every file that had
// a stripe on it ends up striped over the survivors' LookupN(path, 3) —
// not collapsed onto one server — its bytes read back identical, the
// unstaged units included, and the backing store holds exactly the new
// layout's rows.
func TestFabricFailoverKeepsWidth(t *testing.T) {
	const unit, width = 4096, 3
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startBackedFabric(t, 4, store)
	waitConverged(t, servers, 4)
	c, err := client.DialOpts(jobInfo("striper"), addrs, client.Options{Stripes: width, StripeUnit: unit})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	dead := addrs[3]
	files := map[string][]byte{}
	var affected []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/w/f%02d", i)
		data := make([]byte, (5+i)*unit)
		for k := range data {
			data[k] = byte(k*7 + i)
		}
		f, err := c.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
		files[p] = data
		if set, _, err := c.Layout(p); err != nil {
			t.Fatal(err)
		} else if slices.Contains(set, dead) {
			affected = append(affected, p)
		}
	}
	if len(affected) == 0 {
		t.Fatal("no file has a stripe on the server to be killed")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// One more unit on each file whose next unit a survivor holds: acked,
	// and most likely not staged when the kill lands.
	for p, data := range files {
		set, _, err := c.Layout(p)
		if err != nil {
			t.Fatal(err)
		}
		if set[len(data)/unit%width] == dead {
			continue
		}
		tail := bytes.Repeat([]byte{0xEE}, unit)
		f, err := c.Open(p, false)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(tail); err != nil || n != unit {
			t.Fatalf("append %s: n=%d err=%v", p, n, err)
		}
		f.Close()
		files[p] = append(data, tail...)
	}
	c.Close()

	kill := time.Now()
	servers[3].Close()
	survivors := servers[:3]
	cr, err := client.Dial(jobInfo("reader"), addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	ring := chash.New(0)
	for _, a := range addrs[:3] {
		ring.Add(a)
	}
	waitFor(t, 20*time.Second, "every affected file striped over the survivors' LookupN(path, 3)", func() bool {
		for _, p := range affected {
			if set, stripes, err := cr.Layout(p); err != nil || stripes != width || !slices.Equal(set, ring.LookupN(p, width)) {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "post-failover content", func() bool {
		for p, want := range files {
			if readsAs(cr, p, want) != nil {
				return false
			}
		}
		return true
	})
	t.Logf("%d of %d files moved off the killed server; every file readable at full width %v after the kill",
		len(affected), len(files), time.Since(kill).Round(time.Millisecond))

	// The store converges on the new layouts: exactly one row per stripe,
	// from its holder, at the layout's generation and stripe length.
	if err := cr.Flush(); err != nil {
		t.Fatal(err)
	}
	rowDiff := func() string {
		manifest, err := store.Manifest()
		if err != nil {
			return err.Error()
		}
		got := map[string][]string{}
		for _, m := range manifest {
			if !m.IsDir {
				got[m.Path] = append(got[m.Path], fmt.Sprintf("%s#%d:%d@%d", m.Owner, m.Stripe, m.Size, m.LayoutGen))
			}
		}
		for _, p := range affected {
			set := ring.LookupN(p, width)
			fi, err := survivors[slices.Index(addrs, set[0])].Shard().Stat(p)
			if err != nil {
				return err.Error()
			}
			var want []string
			for j, a := range set {
				want = append(want, fmt.Sprintf("%s#%d:%d@%d", a, j, fsys.LocalLen(int64(len(files[p])), j, width, unit), fi.LayoutGen))
			}
			slices.Sort(want)
			slices.Sort(got[p])
			if !slices.Equal(got[p], want) {
				return fmt.Sprintf("%s: rows %v, want %v", p, got[p], want)
			}
		}
		return ""
	}
	deadline := time.Now().Add(10 * time.Second)
	for diff := rowDiff(); diff != ""; diff = rowDiff() {
		if time.Now().After(deadline) {
			t.Fatalf("the backing store never held exactly the new layouts' rows: %s", diff)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
