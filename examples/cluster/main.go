// The cluster-fabric walkthrough: four live servers form a fabric by
// gossip (each exchanges with one random peer per λ — no all-to-all),
// a job heartbeating a single server becomes globally visible within a
// few λ rounds, a client stripes a file over all four servers, and when
// one server is killed the survivors detect the failure, reassign its
// ring segment, and keep serving.
//
// Run: go run ./examples/cluster
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/server"
)

const lambda = 50 * time.Millisecond

func main() {
	// --- 1. Bring up a 4-server fabric through one seed. -----------------
	const n = 4
	servers := make([]*server.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		cfg := server.Config{
			Policy:       policy.SizeFair,
			Lambda:       lambda,
			GossipFanout: 1, // strictly less than n-1: no all-to-all
			Seed:         int64(i + 1),
			Quiet:        true,
		}
		if i > 0 {
			cfg.Join = []string{addrs[0]}
		}
		servers[i] = server.New(ln, cfg)
		addrs[i] = servers[i].Addr()
		go servers[i].Serve()
	}
	fmt.Printf("started %d servers; server 1-%d join through %s\n", n, n-1, addrs[0])

	aliveEverywhere := func(want int) bool {
		for _, s := range servers {
			if s == nil {
				continue
			}
			alive := 0
			for _, m := range s.Cluster().Membership().Snapshot() {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive != want {
				return false
			}
		}
		return true
	}
	start := time.Now()
	for !aliveEverywhere(n) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("membership converged on all servers in %v (λ = %v)\n\n",
		time.Since(start).Round(time.Millisecond), lambda)

	// --- 2. Gossip λ-sync: one server's job goes global. -----------------
	solo, err := client.Dial(policy.JobInfo{JobID: "solo", UserID: "u1", Nodes: 8}, addrs[:1])
	if err != nil {
		log.Fatal(err)
	}
	defer solo.Close()
	start = time.Now()
	for {
		known := 0
		for _, s := range servers {
			for _, e := range s.Table().Snapshot() {
				if e.Info.JobID == "solo" {
					known++
				}
			}
		}
		if known == n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("job \"solo\" heartbeats only %s, yet reached all %d job tables in %v\n\n",
		addrs[0], n, time.Since(start).Round(time.Millisecond))

	// --- 3. Striped I/O across the fabric. -------------------------------
	c, err := client.DialOpts(policy.JobInfo{JobID: "stripe", UserID: "u2", Nodes: 16},
		addrs, client.Options{Stripes: 4, StripeUnit: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 131)
	}
	f, err := c.Open("/ckpt.bin", true)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	start = time.Now()
	if _, err := f.Write(data); err != nil {
		log.Fatal(err)
	}
	wDur := time.Since(start)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(data))
	start = time.Now()
	if _, err := io.ReadFull(f, got); err != nil {
		log.Fatal(err)
	}
	rDur := time.Since(start)
	if !bytes.Equal(got, data) {
		log.Fatal("striped read mismatch")
	}
	mbps := func(d time.Duration) float64 { return float64(len(data)) / d.Seconds() / 1e6 }
	fmt.Printf("striped 8 MiB over %d servers: write %.0f MB/s, read back %.0f MB/s, verified\n",
		n, mbps(wDur), mbps(rDur))
	for i, s := range servers {
		fmt.Printf("  server %d (%s) served %d requests\n", i, addrs[i], s.Served())
	}
	fmt.Println()

	// --- 4. Failover: kill a server, watch the fabric heal. --------------
	dead := addrs[3]
	fmt.Printf("killing %s (no goodbye)\n", dead)
	servers[3].Close()
	servers[3] = nil
	start = time.Now()
	for {
		failedEverywhere := true
		for _, s := range servers[:3] {
			m, ok := s.Cluster().Membership().Lookup(dead)
			if !ok || m.State != cluster.StateFailed {
				failedEverywhere = false
			}
		}
		if failedEverywhere {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("all survivors marked it failed in %v; ring is now %v\n",
		time.Since(start).Round(time.Millisecond),
		servers[0].Cluster().Membership().Ring().Nodes())

	// New I/O keeps flowing; the client reroutes once its first attempt
	// teaches it the server is gone. A half-created file from a failed
	// attempt records a layout naming the dead server, so clear it
	// before recreating.
	for {
		_ = c.Unlink("/after.bin")
		f2, err := c.Open("/after.bin", true)
		if err == nil {
			if _, err = f2.Write(data[:1<<20]); err == nil {
				f2.Close()
				break
			}
			f2.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("post-failover striped write succeeded on the %d survivors %v\n",
		len(c.Servers()), c.Servers())

	for _, s := range servers[:3] {
		s.Close()
	}
}
