package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/server"
)

const itLambda = 25 * time.Millisecond

// listen opens n loopback listeners for startFabric.
func listen(t testing.TB, n int) (lns []net.Listener) {
	t.Helper()
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
	}
	return lns
}

// startFabric boots a live server on each of lns, closed at cleanup:
// size-fair at λ = itLambda, server i with Seed i+1, every server after
// the first joining through it, and gossip fan-out 1, strictly below n-1,
// so no server ever holds all-to-all connections. Each tweak edits every
// server's config before it boots. A late joiner is a fabric of its own
// with the joining tweak.
func startFabric(t testing.TB, lns []net.Listener, tweaks ...func(*server.Config)) ([]*server.Server, []string) {
	t.Helper()
	servers := make([]*server.Server, len(lns))
	addrs := make([]string, len(lns))
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	for i, ln := range lns {
		cfg := server.Config{Lambda: itLambda, GossipFanout: 1, Seed: int64(i + 1), Quiet: true}
		if i > 0 {
			cfg.Join = []string{addrs[0]}
		}
		for _, f := range tweaks {
			f(&cfg)
		}
		servers[i] = server.New(ln, cfg)
		if err := servers[i].BootErr(); err != nil {
			t.Fatal(err)
		}
		go servers[i].Serve()
		t.Cleanup(servers[i].Close)
	}
	return servers, addrs
}

// joining makes every server of a fabric join an existing one through
// seed, with Seeds from 100 so that none repeats one of the fabric's.
func joining(seed string) func(*server.Config) {
	return func(c *server.Config) { c.Join, c.Seed = []string{seed}, c.Seed+99 }
}

// backed gives every server the shared backing store.
func backed(store backing.Store) func(*server.Config) {
	return func(c *server.Config) { c.Backing = store }
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for time.Since(start) < d {
		if cond() {
			return time.Since(start)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
	return 0
}

func jobInfo(id string) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: 4}
}

// TestFabricLive is the end-to-end cluster walkthrough of the issue:
// four live servers form a fabric by gossip (fan-out 1, so nobody
// talks to everybody), a job heartbeating a single server becomes
// globally visible within a small multiple of λ, striped I/O round
// trips across all four servers, and after one server is killed its
// ring segment reassigns and the survivors keep serving.
func TestFabricLive(t *testing.T) {
	servers, addrs := startFabric(t, listen(t, 4))

	waitFor(t, 5*time.Second, "membership convergence", converged(servers, 4))

	// Gossip λ-sync: a job known to one server spreads to all job
	// tables in O(log N) gossip rounds — budget a small multiple of λ.
	solo, err := client.Dial(jobInfo("solo"), addrs[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	elapsed := waitFor(t, 5*time.Second, "job-table convergence", func() bool {
		for _, s := range servers {
			found := false
			for _, e := range s.Table().Snapshot() {
				if e.Info.JobID == "solo" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
	if elapsed > 20*itLambda {
		t.Errorf("job table converged in %v, want within 20λ = %v", elapsed, 20*itLambda)
	}

	// Striped round trip across all four servers.
	c, err := client.DialOpts(jobInfo("stripe"), addrs, client.Options{
		Stripes: 4, StripeUnit: 4096, ConnsPerServer: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	served := make([]int64, len(servers))
	for i, s := range servers {
		served[i] = s.Served()
	}
	f, err := c.Open("/data/striped.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("striped write: n=%d err=%v", n, err)
	}
	for i, s := range servers {
		if s.Served() <= served[i] {
			t.Fatalf("server %d saw no striped traffic", i)
		}
	}
	if size, _, err := c.Stat("/data/striped.bin"); err != nil || size != int64(len(data)) {
		t.Fatalf("striped stat: size=%d err=%v", size, err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := f.Read(got); err != nil || n != len(data) {
		t.Fatalf("striped read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped read mismatch")
	}
	// Unaligned interior read crossing several stripe units.
	const off, ln = 4097*3 + 11, 40000
	if _, err := f.Seek(off, 0); err != nil {
		t.Fatal(err)
	}
	part := make([]byte, ln)
	if n, err := f.Read(part); err != nil || n != ln {
		t.Fatalf("interior read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(part, data[off:off+ln]) {
		t.Fatal("interior read mismatch")
	}

	// Failover: kill server 3 without a goodbye. The fabric suspects,
	// times out, and fails it; its ring segment reassigns.
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
	for i, s := range servers[:3] {
		nodes := s.Cluster().Membership().Ring().Nodes()
		if len(nodes) != 3 {
			t.Fatalf("server %d ring = %v after failover", i, nodes)
		}
		for _, n := range nodes {
			if n == dead {
				t.Fatalf("server %d ring still owns %s", i, dead)
			}
		}
	}
	// The dead server's job-table sightings are scrubbed, so presence
	// deweighting shifts entirely onto the survivors.
	waitFor(t, 5*time.Second, "presence scrub", func() bool {
		for _, s := range servers[:3] {
			for _, e := range s.Table().Snapshot() {
				if e.Servers[dead] {
					return false
				}
			}
		}
		return true
	})

	// Jobs are still served under the policy: striped I/O continues on
	// the survivors once the client's ring reassigns (its first attempt
	// may consume the error that teaches it the server is gone).
	var f2 *client.File
	waitFor(t, 5*time.Second, "post-failover write", func() bool {
		f2, err = c.Open(fmt.Sprintf("/data/after-%d.bin", time.Now().UnixNano()), true)
		if err != nil {
			return false
		}
		_, err = f2.Write(data[:1<<18])
		return err == nil
	})
	if len(c.Servers()) != 3 {
		t.Fatalf("client ring = %v after failover", c.Servers())
	}
	if _, err := f2.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	after := make([]byte, 1<<18)
	if n, err := f2.Read(after); err != nil || n != len(after) {
		t.Fatalf("post-failover read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(after, data[:1<<18]) {
		t.Fatal("post-failover read mismatch")
	}
	if share := servers[0].Scheduler().Share("stripe"); share <= 0 {
		t.Fatalf("stripe job share = %v on survivor", share)
	}
}
