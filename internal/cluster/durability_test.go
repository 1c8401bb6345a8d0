package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/client"
	"themisio/internal/cluster"
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
