package themisio_test

// Testable examples for the public facade, so `go doc themisio` output
// is runnable documentation. Each example with an Output comment runs
// in the test suite; the server/client walkthrough is compile-checked
// only (it binds sockets).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"

	"themisio"
)

// ExampleShares shows what a policy means: the per-job token shares
// Equation 1 compiles for a job set.
func ExampleShares() {
	jobs := []themisio.JobInfo{
		{JobID: "climate", UserID: "alice", Nodes: 6},
		{JobID: "genome", UserID: "bob", Nodes: 2},
	}
	shares, err := themisio.Shares(jobs, themisio.SizeFair)
	if err != nil {
		panic(err)
	}
	ids := make([]string, 0, len(shares))
	for id := range shares {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("%s %.2f\n", id, shares[id])
	}
	// Output:
	// climate 0.75
	// genome 0.25
}

// ExampleParsePolicy parses the paper's composite policy notation.
func ExampleParsePolicy() {
	p, err := themisio.ParsePolicy("group-then-user-then-size-fair")
	if err != nil {
		panic(err)
	}
	fmt.Println(p)
	// A non-terminal policy is completed with a final job level.
	q, _ := themisio.ParsePolicy("user-fair")
	fmt.Println(q)
	// Output:
	// group-then-user-then-size-fair
	// user-then-job-fair
}

// ExampleNewScheduler compiles a policy into a statistical token
// assignment and inspects the per-job shares the workers draw against.
func ExampleNewScheduler() {
	sched := themisio.NewScheduler(themisio.UserFair, 1)
	sched.SetJobs([]themisio.JobInfo{
		{JobID: "j1", UserID: "alice"},
		{JobID: "j2", UserID: "alice"},
		{JobID: "j3", UserID: "bob"},
	})
	fmt.Printf("j1 %.2f j2 %.2f j3 %.2f\n",
		sched.Share("j1"), sched.Share("j2"), sched.Share("j3"))
	// Output:
	// j1 0.25 j2 0.25 j3 0.50
}

// ExampleNewServer is the live lifecycle: a server with a backing store
// for stage-out durability, a client writing and flushing, a graceful
// shutdown. (Compile-checked only: it binds sockets.)
func ExampleNewServer() {
	store, err := themisio.OpenBackingDir("/tmp/themisio-backing")
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := themisio.NewServer(ln, themisio.ServerConfig{
		Policy:  themisio.SizeFair,
		Backing: store, // re-hydrates on start, drains dirty data back
	})
	go srv.Serve()

	job := themisio.JobInfo{JobID: "ckpt-writer", UserID: "alice", Nodes: 4}
	c, err := themisio.Dial(job, []string{ln.Addr().String()})
	if err != nil {
		panic(err)
	}
	f, _ := c.Open("/ckpt.bin", true)
	f.Write([]byte("checkpoint bytes"))
	f.Close()
	c.Flush() // durability barrier: dirty bytes reach the backing store
	c.Close()
	srv.Leave() // graceful: flush, announce departure, stop
}

// ExampleClient_Open is the handle-based client API: Open returns a
// *File speaking io.ReadWriteSeeker, context variants bound each call,
// and failures match exported sentinels through errors.Is. (Compile-
// checked only: it binds sockets.)
func ExampleClient_Open() {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := themisio.NewServer(ln, themisio.ServerConfig{Policy: themisio.SizeFair})
	go srv.Serve()

	job := themisio.JobInfo{JobID: "analysis", UserID: "alice", Nodes: 2}
	c, err := themisio.DialStriped(job, []string{ln.Addr().String()}, themisio.ClientOptions{
		Stripes:        1,
		ConnsPerServer: 2, // pooled connections to each server (default 1)
	})
	if errors.Is(err, themisio.ErrInvalidOptions) {
		panic("malformed options are refused before any dial")
	}
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// A handle is an io.ReadWriteSeeker: io.Copy and friends just work.
	f, err := c.Open("/results.bin", true)
	if err != nil {
		panic(err)
	}
	io.Copy(f, strings.NewReader("run output"))
	f.Seek(0, io.SeekStart)
	io.Copy(io.Discard, f)
	f.Close()

	// Context variants bound any call; cancellation surfaces as a typed
	// error, distinct from server failures.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, _, err := c.StatContext(ctx, "/missing"); errors.Is(err, themisio.ErrNotExist) {
		fmt.Println("no such file")
	} else if errors.Is(err, themisio.ErrCanceled) {
		fmt.Println("deadline hit first")
	}
	srv.Leave()
}

// ExampleNewCluster runs the discrete-event simulator for two seconds
// of virtual time and reports that the device envelope is saturated.
func ExampleNewCluster() {
	cl := themisio.NewCluster(themisio.ClusterConfig{
		Servers: 1,
		NewSched: func(i int, capacity float64) themisio.Scheduler {
			return themisio.NewScheduler(themisio.JobFair, int64(i))
		},
	})
	cl.AddProc(themisio.ClusterProc{
		Job:        themisio.JobInfo{JobID: "writer", UserID: "alice"},
		Stream:     themisio.WriteStream(1 << 20),
		QueueDepth: 32, // keep ≥ one tick of data in flight
		Stop:       2 * time.Second,
	})
	cl.Run(2 * time.Second)
	rate := cl.Meter().MeanRate("writer", 0, 2*time.Second)
	fmt.Printf("saturates one direction: %v\n", rate > 0.9*themisio.DirBW)
	// Output:
	// saturates one direction: true
}
