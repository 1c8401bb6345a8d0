package cluster_test

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/policy"
	"themisio/internal/server"
)

// Hot-swap fabric tuning. λ is generous so the ≤3λ epoch-propagation
// budget is dominated by gossip rounds, not TCP scheduling jitter; the
// per-request OpDelay keeps the worker pool the bottleneck, so both
// jobs hold a standing backlog and the token draw — not client offered
// load — decides the measured shares.
const (
	psLambda  = 200 * time.Millisecond
	psOpDelay = 500 * time.Microsecond
	// 64 writers per user keep every server's per-user queue deep enough
	// that the striped write's fan-out barrier (a write completes at the
	// slowest of its 4 stripe servers) cannot momentarily drain the
	// high-share user's queue and leak her cycles to the other user.
	psWriters = 64
	psWrite   = 16 << 10 // bytes per Write call
	psUnit    = 4 << 10  // stripe unit: every write fans to all 4 servers
)

// psRotateWrites is how many appends a writer makes to one file before
// unlinking it and starting over (3 MB per file): the flood runs for as
// long as convergence takes without ever filling the servers' 256 MiB
// shards — steady state is ≤ psWriters·2·3 MB across the fabric. The
// rotation is long enough that its serial unlink/reopen round trips
// (scheduled ops, so they queue like any request) stay well under 1% of
// a writer's duty cycle — rotating too often visibly leaks the
// high-share user's cycles to the other user.
const psRotateWrites = 192

// swapLoad runs one user's striped write flood: psWriters goroutines,
// each appending to (and periodically rotating) its own file, until
// stop closes. Every error — write, unlink, reopen, short write — is
// counted; the acceptance bar is zero.
func swapLoad(t testing.TB, c *client.Client, user string, stop chan struct{}, errs *atomic.Int64) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < psWriters; i++ {
		path := fmt.Sprintf("/swap/%s-%d.bin", user, i)
		f, err := c.Open(path, true)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		wg.Add(1)
		go func(f *client.File, path string) {
			defer wg.Done()
			buf := make([]byte, psWrite)
			writes := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := f.Write(buf); err != nil || n != len(buf) {
					errs.Add(1)
				}
				if writes++; writes >= psRotateWrites {
					writes = 0
					if err := f.Close(); err != nil {
						errs.Add(1)
					}
					if err := c.Unlink(path); err != nil {
						errs.Add(1)
					}
					var err error
					if f, err = c.Open(path, true); err != nil {
						errs.Add(1)
						return
					}
				}
			}
		}(f, path)
	}
	return &wg
}

// TestFabricPolicySwap is the acceptance walkthrough of the live
// policy hot-swap: on a 4-server fabric under concurrent load from two
// users, `policy set` flips job-fair → size-fair through one member;
// the rumor gossips out and every member reports the new policy epoch
// within 3λ; no request errors; and the measured per-entity shares
// every server reports over MsgShareReport converge to the freshly
// compiled shares within ±0.02 — without restarting anything or
// dropping a byte.
func TestFabricPolicySwap(t *testing.T) {
	if testing.Short() {
		t.Skip("live share-convergence scenario needs several seconds of saturated load")
	}
	// Job-fair at boot, with saturating-delay device emulation.
	servers, addrs := startFabric(t, listen(t, 4), func(c *server.Config) {
		c.Policy, c.Lambda, c.GossipFanout, c.OpDelay = policy.JobFair, psLambda, 2, psOpDelay
	})
	waitConverged(t, servers, 4)

	alice := policy.JobInfo{JobID: "job-a", UserID: "alice", GroupID: "g", Nodes: 3}
	bob := policy.JobInfo{JobID: "job-b", UserID: "bob", GroupID: "g", Nodes: 1}
	opts := client.Options{Stripes: 4, StripeUnit: psUnit}
	ca, err := client.DialOpts(alice, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.DialOpts(bob, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if err := ca.Mkdir("/swap"); err != nil {
		t.Fatal(err)
	}

	var errCount atomic.Int64
	stop := make(chan struct{})
	wgA := swapLoad(t, ca, "alice", stop, &errCount)
	wgB := swapLoad(t, cb, "bob", stop, &errCount)
	halt := sync.OnceFunc(func() {
		close(stop)
		wgA.Wait()
		wgB.Wait()
	})
	defer halt() // a wait that gives up leaves no writer running

	// Let the fabric settle into the saturated job-fair regime: every
	// member has arbitrated a few hundred requests of each job.
	waitFor(t, 20*time.Second, "both jobs served on every member", func() bool {
		for _, s := range servers {
			if n := s.Scheduler().Served(); n[alice.JobID] < 500 || n[bob.JobID] < 500 {
				return false
			}
		}
		return true
	})

	// The swap: one control message to one member.
	canon, epoch, err := ca.SetPolicy("size-fair")
	swapAt := time.Now()
	if err != nil {
		t.Fatalf("policy set: %v", err)
	}
	if canon != "size-fair" || epoch == 0 {
		t.Fatalf("policy set returned %q epoch %d", canon, epoch)
	}

	// Every member must be enforcing the new policy epoch within 3λ.
	waitFor(t, 10*time.Second, "policy epoch propagation", func() bool {
		for _, s := range servers {
			str, e := s.AppliedPolicy()
			if e != epoch || str != "size-fair" {
				return false
			}
		}
		return true
	})
	if elapsed := time.Since(swapAt); elapsed > 3*psLambda {
		t.Errorf("policy epoch reached every member in %v, want within 3λ = %v", elapsed, 3*psLambda)
	}

	// Measured shares re-converge to the new compiled shares on every
	// server (the ledger horizon has to forget the job-fair windows
	// first). Checked through the wire path — MsgShareReport — exactly
	// as `themisctl policy status` would.
	var lastBad string
	converged := func() bool {
		reports, err := ca.ShareReports()
		if err != nil || len(reports) != 4 {
			lastBad = fmt.Sprintf("reports: %d, err %v", len(reports), err)
			return false
		}
		for _, rep := range reports {
			if rep.PolicyEpoch != epoch {
				lastBad = fmt.Sprintf("%s at epoch %d", rep.Addr, rep.PolicyEpoch)
				return false
			}
			seen := 0
			for _, e := range rep.Shares {
				if e.Kind != "user" {
					continue
				}
				var want float64
				switch e.ID {
				case "alice":
					want = 0.75
				case "bob":
					want = 0.25
				default:
					continue
				}
				seen++
				if math.Abs(e.Compiled-want) > 1e-6 {
					lastBad = fmt.Sprintf("%s compiled %s = %.4f, want %.2f", rep.Addr, e.ID, e.Compiled, want)
					return false
				}
				if r := e.Measured - e.Compiled; math.Abs(r) > 0.02 {
					lastBad = fmt.Sprintf("%s %s residual %+.4f", rep.Addr, e.ID, r)
					return false
				}
			}
			if seen != 2 {
				lastBad = fmt.Sprintf("%s reports %d of 2 users", rep.Addr, seen)
				return false
			}
		}
		return true
	}
	defer func() {
		if t.Failed() {
			t.Log("last mismatch: " + lastBad)
		}
	}()
	waitFor(t, 20*time.Second, "measured shares within ±0.02 of compiled", converged)
	halt()

	if n := errCount.Load(); n != 0 {
		t.Fatalf("%d request errors across the hot-swap, want 0", n)
	}
	// The jobs were never restarted: both made progress after the swap
	// under the new shares (alice ~3× bob).
	reports, err := ca.ShareReports()
	if err != nil {
		t.Fatal(err)
	}
	var aBytes, bBytes int64
	for _, rep := range reports {
		for _, e := range rep.Shares {
			if e.Kind == "user" && e.ID == "alice" {
				aBytes += e.Bytes
			}
			if e.Kind == "user" && e.ID == "bob" {
				bBytes += e.Bytes
			}
		}
	}
	if aBytes == 0 || bBytes == 0 {
		t.Fatalf("post-swap serviced bytes: alice %d, bob %d", aBytes, bBytes)
	}
	ratio := float64(aBytes) / float64(aBytes+bBytes)
	if math.Abs(ratio-0.75) > 0.02 {
		t.Errorf("cluster-aggregate alice share = %.3f, want 0.75±0.02", ratio)
	}
}
