package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/cluster"
	"themisio/internal/server"
)

// fabric is an in-process set of live servers on loopback listeners.
type fabric struct {
	servers []*server.Server
	addrs   []string
	serving sync.WaitGroup
}

// bootFabric starts n servers that join through the first and returns once
// every member sees every other alive. Dialing earlier would place files by
// a partial ring, and the first create after the join would then trigger a
// rebalance in the middle of a measurement.
func bootFabric(n int, cfg server.Config) (*fabric, error) {
	f := &fabric{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		c := cfg
		c.Quiet = true
		c.Seed = int64(i + 1) // the token stream is the program's, not an input
		if i > 0 {
			c.Join = []string{f.addrs[0]}
		}
		s := server.New(ln, c)
		f.servers = append(f.servers, s)
		f.addrs = append(f.addrs, s.Addr())
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			s.Serve()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !f.converged() {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("membership of %d servers did not converge in 10s", n)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *fabric) converged() bool {
	for _, s := range f.servers {
		alive := 0
		for _, m := range s.Cluster().Membership().Snapshot() {
			if m.State == cluster.StateAlive {
				alive++
			}
		}
		if alive != len(f.servers) {
			return false
		}
	}
	return true
}

// close stops every server and waits for its goroutines.
func (f *fabric) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
}

// served is the number of requests the servers have executed.
func (f *fabric) served() int64 {
	var n int64
	for _, s := range f.servers {
		n += s.Served()
	}
	return n
}

// checker counts the client calls a workload attempts and the ones that fail
// or return something other than what was written. With corrupt armed, the
// next comparison sees one flipped byte (or a count off by one): the -corrupt
// self-test, which must turn the run incorrect.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	corrupt   atomic.Bool
	logged    atomic.Int32
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	if c.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// call counts one attempted client call and reports whether it succeeded.
func (c *checker) call(what string, err error) bool {
	c.attempted.Add(1)
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	return true
}

// sameBytes compares a whole buffer the system returned with what was written.
func (c *checker) sameBytes(what string, got, want []byte) bool {
	if len(got) > 0 && c.corrupt.CompareAndSwap(true, false) {
		got[len(got)/2] ^= 0x01
	}
	if !bytes.Equal(got, want) {
		c.fail("%s: %d bytes read differ from the %d written", what, len(got), len(want))
		return false
	}
	return true
}

// sameInt compares a size or count the system returned with the expected one.
func (c *checker) sameInt(what string, got, want int64) bool {
	if c.corrupt.CompareAndSwap(true, false) {
		got++
	}
	if got != want {
		c.fail("%s: got %d, want %d", what, got, want)
		return false
	}
	return true
}

// opLog records one stream's calls of one class: the latency of each call,
// and the call rate of each fixed-size chunk of them (calls per second of
// time spent inside the calls, so the harness's own checking is not in it).
type opLog struct {
	class string
	tr    *tracer // nil unless this is the traced run
	lat   []int64
	rates []float64
	n     int
	busy  time.Duration
}

func newOpLog(class string, tr *tracer) *opLog {
	return &opLog{class: class, tr: tr, lat: make([]int64, 0, 1<<16)}
}

func (l *opLog) add(start time.Time, d time.Duration) {
	l.lat = append(l.lat, int64(d))
	l.n++
	l.busy += d
	if l.tr != nil {
		l.tr.span(l.class, "", start, d)
	}
}

func (l *opLog) endChunk() {
	if l.n > 0 && l.busy > 0 {
		l.rates = append(l.rates, float64(l.n)/l.busy.Seconds())
	}
	l.n, l.busy = 0, 0
}

// classStat summarises one class of calls over a measured phase.
type classStat struct {
	Rate, RateQ1, RateQ3 float64 // calls/s: median over chunks, summed over streams
	Chunks               int
	P50us, P99us         float64
	Calls                int
}

func summarise(logs []*opLog) classStat {
	var st classStat
	var all []int64
	for _, l := range logs {
		q1, med, q3 := quartiles(l.rates)
		st.Rate += med
		st.RateQ1 += q1
		st.RateQ3 += q3
		st.Chunks += len(l.rates)
		all = append(all, l.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st.Calls = len(all)
	st.P50us = percentileSorted(all, 0.50) / 1e3
	st.P99us = percentileSorted(all, 0.99) / 1e3
	return st
}
