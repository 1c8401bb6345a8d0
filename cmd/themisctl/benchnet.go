// `bench net ADDR` — the data-plane throughput probe: stream a bounded
// append workload at one server over a single instrumented binary
// connection and report what the wire actually did. The probe answers
// the first capacity-planning question (how fast is this link through
// the real codec, scheduler and shard, end to end) and the first
// zero-copy regression question (are large payloads still riding out
// as their own iovec, one write syscall per frame) without perf, and
// without a Prometheus server: the numbers come from the same
// transport.Stats counters the operator metrics endpoint exports.
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

const (
	benchNetTotal  = 64 << 20  // bytes streamed by the probe
	benchNetFrame  = 256 << 10 // payload per MsgWrite frame
	benchNetWindow = 8         // appends in flight on the conn
)

// benchNetCmd runs the probe against addr. The scratch file is created
// and removed through the client library (so it gets a well-formed
// stripe layout); the measured stream itself is a raw pipelined
// MsgWrite sequence on its own instrumented connections. With conns >
// 1 the probe sweeps doubling connection counts up to conns — the CLI
// answer to "what does a pool of N buy this link" — splitting the same
// 64 MiB across the conns of each round.
func benchNetCmd(stdout io.Writer, addr string, conns int) error {
	job := policy.JobInfo{JobID: "themisctl-bench", UserID: "operator", GroupID: "staff", Nodes: 1}

	// Dial the whole fabric, not just addr: a create whose stripe set
	// diverges from the membership ring is itself a rebalance trigger
	// (the migrator would move the scratch file away mid-stream), so the
	// probe must pick a path the ring naturally places on addr.
	servers := []string{addr}
	if resp, err := controlExchange(addr, &transport.Request{Type: transport.MsgClusterStatus}); err == nil {
		var alive []string
		for _, m := range cluster.FromRecords(resp.Members) {
			if m.State == cluster.StateAlive {
				alive = append(alive, m.Addr)
			}
		}
		if len(alive) > 0 {
			servers = alive
		}
	}
	c, err := client.Dial(job, servers)
	if err != nil {
		return err
	}
	defer c.Close()

	var (
		path string
		f    *client.File
	)
	for i := 0; ; i++ {
		if i == 256 {
			return fmt.Errorf("bench net: no scratch path places on %s (draining?)", addr)
		}
		path = fmt.Sprintf("/.bench-net-%d-%d", os.Getpid(), i)
		if f, err = c.Open(path, true); err != nil {
			return err
		}
		set, _, err := c.Layout(path)
		if err != nil {
			return err
		}
		if len(set) > 0 && set[0] == addr {
			break
		}
		f.Close()
		if err := c.Unlink(path); err != nil {
			return err
		}
	}
	defer c.Unlink(path)
	defer f.Close()

	// Writes must echo the file's layout generation or a fabric whose
	// epoch has moved past the create answers stale-layout.
	layoutGen, err := layoutGenOf(addr, job, path)
	if err != nil {
		return err
	}

	if conns < 1 {
		conns = 1
	}
	sizes := []int{}
	for n := 1; n < conns; n *= 2 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, conns) // always end the sweep on the asked size
	for _, n := range sizes {
		if err := benchNetStream(stdout, addr, job, path, layoutGen, n); err != nil {
			return err
		}
	}
	return nil
}

// layoutGenOf stats path over a throwaway conn and returns the layout
// generation the streamed appends must echo.
func layoutGenOf(addr string, job policy.JobInfo, path string) (uint64, error) {
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return 0, err
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	if err := conn.SendRequest(&transport.Request{
		Type: transport.MsgStat, Seq: 1, Job: job, Path: path,
	}); err != nil {
		return 0, err
	}
	resp, err := conn.RecvResponse()
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if resp.Err != "" {
		return 0, resp.Error()
	}
	return resp.LayoutGen, nil
}

// benchNetStream times one sweep round: the 64 MiB workload split
// evenly over nconns raw instrumented connections, each pipelining its
// share with a benchNetWindow in-flight budget — the wire shape a
// size-n connection pool produces.
func benchNetStream(stdout io.Writer, addr string, job policy.JobInfo, path string, layoutGen uint64, nconns int) error {
	st := &transport.Stats{}
	cs := make([]*transport.Conn, nconns)
	for i := range cs {
		raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return err
		}
		cs[i] = transport.NewConnStats(raw, st)
		defer cs[i].Close()
	}

	vec0, vecBytes0, _ := transport.IOStats()
	sent0, writes0 := transport.SendStats()
	payload := make([]byte, benchNetFrame)
	for i := range payload {
		payload[i] = byte(i)
	}
	frames := benchNetTotal / benchNetFrame

	// Each conn windows its own appends: up to benchNetWindow unacked
	// frames keep its pipe full; a reader goroutine per conn drains acks
	// and surfaces the first server-side error.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		oops error
	)
	fail := func(err error) {
		mu.Lock()
		if oops == nil {
			oops = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for ci, conn := range cs {
		share := frames / nconns
		if ci < frames%nconns {
			share++
		}
		sem := make(chan struct{}, benchNetWindow)
		done := make(chan struct{})
		wg.Add(2)
		go func(conn *transport.Conn, share int) {
			defer wg.Done()
			defer close(done) // a dead reader must not strand the sender on sem
			for i := 0; i < share; i++ {
				resp, err := conn.RecvResponse()
				if err != nil {
					fail(err)
					return
				}
				if resp.Err != "" {
					fail(resp.Error())
				}
				resp.Release()
				<-sem
			}
		}(conn, share)
		go func(conn *transport.Conn, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				select {
				case sem <- struct{}{}:
				case <-done:
					return
				}
				if err := conn.SendRequest(&transport.Request{
					Type: transport.MsgWrite, Seq: uint64(i + 2), Job: job,
					Path: path, Data: payload, LayoutGen: layoutGen,
				}); err != nil {
					fail(err)
					conn.Close() // unblocks the reader
					return
				}
			}
		}(conn, share)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if oops != nil {
		return oops
	}

	// Distill: throughput from the wall clock, wire accounting from the
	// shared Stats rows, write-syscall economy from the process-wide
	// SendStats and IOStats deltas (this probe's conns are the only
	// data-plane senders in the process, so the deltas are its own).
	var outFrames, outBytes int64
	st.Snapshot(func(typ, dir string, f, b int64) {
		if typ == transport.MsgWrite.String() && dir == "out" {
			outFrames, outBytes = f, b
		}
	})
	vec1, vecBytes1, _ := transport.IOStats()
	sent1, writes1 := transport.SendStats()
	mbps := float64(benchNetTotal) / (1 << 20) / elapsed.Seconds()
	fmt.Fprintf(stdout, "%s\tconns=%d\t%d MiB in %d frames, %.1f MB/s\n",
		addr, nconns, benchNetTotal>>20, outFrames, mbps)
	fmt.Fprintf(stdout, "%s\tconns=%d\twire %d bytes (%.1f bytes/frame overhead), %.2f write syscalls/frame, %d/%d frames vectored (%d MiB as iovecs)\n",
		addr, nconns, outBytes,
		float64(outBytes-int64(frames)*benchNetFrame)/float64(frames),
		float64(writes1-writes0)/float64(sent1-sent0),
		vec1-vec0, sent1-sent0, (vecBytes1-vecBytes0)>>20)
	return nil
}
