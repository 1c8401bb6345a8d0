package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// listen opens n loopback listeners for startFabric.
func listen(t *testing.T, n int) (lns []net.Listener) {
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
// size-fair at λ = 50 ms, server i with Seed i+1, each joining all the
// others (fully peered for λ-sync). Each tweak edits every server's
// config before it boots.
func startFabric(t *testing.T, lns []net.Listener, tweaks ...func(*Config)) []*Server {
	t.Helper()
	servers := make([]*Server, len(lns))
	for i, ln := range lns {
		cfg := Config{Lambda: 50 * time.Millisecond, Seed: int64(i + 1), Quiet: true}
		for j, peer := range lns {
			if j != i {
				cfg.Join = append(cfg.Join, peer.Addr().String())
			}
		}
		for _, f := range tweaks {
			f(&cfg)
		}
		servers[i] = New(ln, cfg)
		if err := servers[i].BootErr(); err != nil {
			t.Fatal(err)
		}
		go servers[i].Serve()
		t.Cleanup(servers[i].Close)
	}
	return servers
}

// star makes a fabric join through its first server alone: server i's
// Join lists the others in order, so for i > 0 it starts with server 0.
func star(c *Config) {
	if c.Seed == 1 {
		c.Join = nil
	} else {
		c.Join = c.Join[:1]
	}
}

// addrsOf returns the servers' listen addresses.
func addrsOf(servers []*Server) []string {
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// waitFor polls cond until it holds or d passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// The scheduler's seed depends on the configured seed and on the listen
// address, so no two members of a fabric draw the same token sequence.
func TestSchedSeed(t *testing.T) {
	a, b := "127.0.0.1:7000", "127.0.0.1:7001"
	if schedSeed(0, a) != schedSeed(0, a) {
		t.Fatal("same seed and address must give the same value")
	}
	if schedSeed(0, a) == schedSeed(0, b) {
		t.Fatal("two listen addresses share a token sequence")
	}
	if schedSeed(0, a) == schedSeed(1, a) {
		t.Fatal("a non-zero Seed must still change the value")
	}
}

// A joiner announces itself when Serve starts: with λ = 2 s both members
// see each other alive long before the first tick.
func TestJoinBeforeFirstTick(t *testing.T) {
	servers := startFabric(t, listen(t, 2), func(c *Config) { c.Lambda = 2 * time.Second }, star)
	t.Cleanup(func() { // Close waits out the controller's tick: overlap the two
		var wg sync.WaitGroup
		for _, s := range servers {
			wg.Add(1)
			go func() { defer wg.Done(); s.Close() }()
		}
		wg.Wait()
	})
	waitFor(t, 500*time.Millisecond, "both members alive on both", func() bool {
		for _, s := range servers {
			alive := 0
			for _, m := range s.Cluster().Membership().Snapshot() {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive != len(servers) {
				return false
			}
		}
		return true
	})
}

// A server without a backing store has nobody to hand its unlink
// tombstones to; the controller must drop them each λ, or every unlink
// a volatile server ever served stays in its memory (80 MB over a 20 s
// meta_churn run).
func TestVolatileServerDropsTombstones(t *testing.T) {
	s := startFabric(t, listen(t, 1), func(c *Config) { c.Lambda = 20 * time.Millisecond })[0]
	c, err := client.Dial(jobInfo("churn", 1), []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const files = 200
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/t-%03d", i)
		if f, err := c.Open(p, true); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two more gossip rounds bracket one whole controller pass that began
	// after the last unlink.
	after := s.node.GossipRounds() + 2
	waitFor(t, 5*time.Second, "two more controller ticks", func() bool { return s.node.GossipRounds() >= after })
	if left := s.Shard().TakeTombstones(); len(left) != 0 {
		t.Fatalf("%d of %d unlink tombstones still held with no backing store to send them to", len(left), files)
	}
}

func jobInfo(id string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: nodes}
}

func TestLiveRoundTripSingleServer(t *testing.T) {
	srv := startFabric(t, listen(t, 1))[0]
	c, err := client.Dial(jobInfo("job1", 4), []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/data/hello.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the statistical token scheduler")
	if n, err := f.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := f.Read(got); err != nil || n != len(msg) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	size, isDir, err := c.Stat("/data/hello.bin")
	if err != nil || isDir || size != int64(len(msg)) {
		t.Fatalf("stat: %d %v %v", size, isDir, err)
	}
	names, err := c.Readdir("/data")
	if err != nil || len(names) != 1 || names[0] != "hello.bin" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/data/hello.bin"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stat("/data/hello.bin"); err == nil {
		t.Fatal("stat after unlink should fail")
	}
}

func TestLiveMultiServerPlacementAndSync(t *testing.T) {
	c, err := client.Dial(jobInfo("job1", 8), addrsOf(startFabric(t, listen(t, 3))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/spread"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	contents := map[string][]byte{}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/spread/file-%02d", i)
		f, err := c.Open(p, true)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		data := make([]byte, rng.Intn(60000)+1)
		rng.Read(data)
		if _, err := f.Write(data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		contents[p] = data
		f.Close()
	}
	// All files visible in one merged directory listing.
	names, err := c.Readdir("/spread")
	if err != nil || len(names) != 24 {
		t.Fatalf("readdir merged %d names (%v)", len(names), err)
	}
	// Data round-trips regardless of which server owns the file.
	for p, want := range contents {
		f, err := c.Open(p, false)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		got := make([]byte, len(want))
		if n, err := f.Read(got); err != nil || n != len(want) {
			t.Fatalf("read %s: n=%d err=%v", p, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("corrupt data in %s", p)
		}
		f.Close()
	}
}

// Two jobs hammer a live server concurrently; the size-fair scheduler
// must serve the 4x larger job ~4x more requests.
func TestLiveSizeFairService(t *testing.T) {
	// A 200µs device emulation keeps the queue saturated, which is the
	// regime where the policy bites (unsaturated servers serve everyone
	// at full speed by opportunity fairness). Under the race detector the
	// clients slow more than the server and can no longer saturate a
	// 200µs device, so the emulated op cost scales up to match.
	opDelay := 200 * time.Microsecond
	if raceEnabled {
		opDelay = 1500 * time.Microsecond
	}
	addrs := addrsOf(startFabric(t, listen(t, 1), func(c *Config) { c.OpDelay = opDelay }))

	run := func(job policy.JobInfo, workers int, stopCh chan struct{}, count *int64, mu *sync.Mutex) {
		var wg sync.WaitGroup
		c, err := client.Dial(job, addrs)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := fmt.Sprintf("/%s-%d", job.JobID, w)
				f, err := c.Open(p, true)
				if err != nil {
					return
				}
				buf := make([]byte, 512)
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					if _, err := f.Write(buf); err != nil {
						return
					}
					mu.Lock()
					*count++
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}

	stopCh := make(chan struct{})
	var mu sync.Mutex
	var bigN, smallN int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(jobInfo("big", 4), 8, stopCh, &bigN, &mu) }()
	go func() { defer wg.Done(); run(jobInfo("small", 1), 8, stopCh, &smallN, &mu) }()
	// Enough served requests to judge a 4:1 split, however long the box
	// takes to serve them.
	waitFor(t, 20*time.Second, "3000 writes served", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return bigN+smallN >= 3000
	})
	close(stopCh)
	wg.Wait()

	mu.Lock()
	b, s := bigN, smallN
	mu.Unlock()
	if b < 100 || s < 10 {
		t.Fatalf("too little traffic to judge: big=%d small=%d", b, s)
	}
	ratio := float64(b) / float64(s)
	if ratio < 2.0 || ratio > 8.0 {
		t.Fatalf("live size-fair ratio = %.2f (big=%d small=%d), want ~4", ratio, b, s)
	}
}

// Any File method after Close returns fs.ErrClosed, and opening a
// missing path without create fails.
func TestLiveClosedFile(t *testing.T) {
	c, err := client.Dial(jobInfo("j", 1), addrsOf(startFabric(t, listen(t, 1))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/missing", false); !errors.Is(err, client.ErrNotExist) {
		t.Fatalf("open of missing file: %v", err)
	}
	f, err := c.Open("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, rerr := f.Read(make([]byte, 1))
	_, werr := f.Write([]byte("x"))
	_, serr := f.Seek(0, io.SeekStart)
	for op, err := range map[string]error{"read": rerr, "write": werr, "seek": serr, "close": f.Close()} {
		if !errors.Is(err, fs.ErrClosed) {
			t.Errorf("%s after Close: %v, want fs.ErrClosed", op, err)
		}
	}
}

// A read's size is the client's claim: one below zero or above the top
// lease class is answered with an error, not leased, and the connection
// goes on serving.
func TestHostileReadSizeAnswered(t *testing.T) {
	srv := startFabric(t, listen(t, 1))[0]
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	job := jobInfo("hostile", 1)
	call := func(req *transport.Request) *transport.Response {
		t.Helper()
		req.Job = job
		if err := conn.SendRequest(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RecvResponse()
		if err != nil {
			t.Fatalf("%v of size %d: %v", req.Type, req.Size, err)
		}
		return resp
	}
	for _, req := range []*transport.Request{
		{Type: transport.MsgCreate, Path: "/h", Stripes: 1},
		{Type: transport.MsgWrite, Path: "/h", Data: []byte("still here")},
	} {
		if resp := call(req); resp.Err != "" {
			t.Fatalf("setup %v: %s", req.Type, resp.Err)
		}
	}
	for _, size := range []int64{-1, transport.MaxRead + 1, 1 << 50} {
		if resp := call(&transport.Request{Type: transport.MsgRead, Path: "/h", Size: size}); resp.Err == "" || resp.N != 0 {
			t.Fatalf("read of size %d answered %+v, want an error", size, resp)
		}
	}
	resp := call(&transport.Request{Type: transport.MsgRead, Path: "/h", Size: 64})
	if resp.Err != "" || string(resp.Data) != "still here" {
		t.Fatalf("the read after them: %q, err %q", resp.Data, resp.Err)
	}
	resp.Release()
}

// Servers whose clocks started apart agree on when a job leaves. A
// joiner booted a second after the seed learns a job that heartbeats
// only to the seed, and drops it from its compiled set within one
// heartbeat timeout and 2λ of the seed doing so, not the second later
// that a time on the seed's clock would read as on the joiner's.
func TestJoinerAgesOutDepartedJob(t *testing.T) {
	const timeout, lambda = 300 * time.Millisecond, 50 * time.Millisecond
	short := func(c *Config) { c.HeartbeatTimeout, c.Lambda = timeout, lambda }
	seed := startFabric(t, listen(t, 1), short)[0]
	waitFor(t, 5*time.Second, "the seed's clock to pass 1 s", func() bool { return seed.now() >= time.Second })
	joiner := startFabric(t, listen(t, 1), short, func(c *Config) { c.Join = []string{seed.Addr()} })[0]

	raw, err := net.Dial("tcp", seed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	job := jobInfo("departing", 1)
	waitFor(t, 10*time.Second, "the joiner to compile a job that heartbeats to the seed", func() bool {
		if err := conn.SendRequest(&transport.Request{Type: transport.MsgHeartbeat, Job: job}); err != nil {
			t.Fatal(err)
		}
		return joiner.Scheduler().Share(job.JobID) > 0
	})
	var leftSeed, leftJoiner time.Time
	waitFor(t, 10*time.Second, "the silent job to leave both compiled sets", func() bool {
		now := time.Now()
		if leftSeed.IsZero() && seed.Scheduler().Share(job.JobID) == 0 {
			leftSeed = now
		}
		if leftJoiner.IsZero() && joiner.Scheduler().Share(job.JobID) == 0 {
			leftJoiner = now
		}
		return !leftSeed.IsZero() && !leftJoiner.IsZero()
	})
	if lag := leftJoiner.Sub(leftSeed); lag > timeout+2*lambda {
		t.Fatalf("the joiner compiled the job %v after the seed dropped it, want at most %v", lag, timeout+2*lambda)
	}
}
