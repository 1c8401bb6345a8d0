package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair is pipePair over loopback TCP — the transport whose writev the
// vectored path actually uses.
func tcpPair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return NewConn(a), NewConn(b)
}

// hammerByte is byte j of the payload goroutine g sends as its frame i.
func hammerByte(g, i, j int) byte { return byte(g*131 + i*31 + j*7) }

// Concurrent senders on one conn: coalescing moves syscall boundaries,
// never frame bytes or order. Eight goroutines alternate empty, copied
// (4 KiB) and vectored (64 KiB in three segments) payloads; every frame
// must decode, every payload byte must match its (goroutine, index)
// pattern, and each goroutine's frames must arrive in the order sent.
func TestConcurrentSendersHammer(t *testing.T) {
	const senders, frames = 8, 500
	sizes := [3]int{0, 4 << 10, 64 << 10}
	for name, pair := range map[string]func() (*Conn, *Conn){
		"tcp":  func() (*Conn, *Conn) { return tcpPair(t) },
		"pipe": pipePair,
	} {
		t.Run(name, func(t *testing.T) {
			c1, c2 := pair()
			defer c1.Close()
			defer c2.Close()
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, sizes[2])
					for i := 0; i < frames; i++ {
						p := buf[:sizes[(g+i)%3]]
						for j := range p {
							p[j] = hammerByte(g, i, j)
						}
						req := &Request{Type: MsgWrite, Seq: uint64(g)<<32 | uint64(i), Path: "/p", Data: p}
						if len(p) >= sgMinPayload {
							req.Data, req.DataSegs = nil, [][]byte{p[:len(p)/3], p[len(p)/3 : len(p)/2], p[len(p)/2:]}
						}
						// buf is rewritten for the next frame the moment
						// SendRequest returns: copied or written by then.
						if err := c1.SendRequest(req); err != nil {
							t.Errorf("sender %d frame %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			var next [senders]int
			for k := 0; k < senders*frames; k++ {
				req, err := c2.RecvRequest()
				if err != nil {
					t.Fatalf("recv %d: %v", k, err)
				}
				g, i := int(req.Seq>>32), int(uint32(req.Seq))
				if g >= senders || i != next[g] {
					t.Fatalf("frame %d: sender %d index %d, want index %d", k, g, i, next[g])
				}
				next[g]++
				if len(req.Data) != sizes[(g+i)%3] {
					t.Fatalf("sender %d frame %d: %d payload bytes, want %d", g, i, len(req.Data), sizes[(g+i)%3])
				}
				for j, v := range req.Data {
					if v != hammerByte(g, i, j) {
						t.Fatalf("sender %d frame %d: byte %d = %#x, want %#x", g, i, j, v, hammerByte(g, i, j))
					}
				}
				req.Release()
			}
			wg.Wait()
		})
	}
}

// pendingLen samples the connection's unwritten bytes.
func (c *Conn) pendingLen() int {
	c.smu.Lock()
	defer c.smu.Unlock()
	return len(c.pending)
}

// A peer that stops reading is backpressure, not memory: pending stays
// within its bound (plus the one frame admitted below it), the senders
// over it block, and they resume when the reader does — or return
// promptly with an error when the connection is closed instead.
func TestStalledReaderBoundsPending(t *testing.T) {
	const senders, frames, size = 16, 40, 4 << 10 // 2.5 MiB against a 256 KiB bound
	for _, resume := range []bool{true, false} {
		c1, c2 := pipePair() // a pipe write blocks until the peer reads
		var sent, failed atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					if err := c1.SendRequest(&Request{Type: MsgWrite, Seq: uint64(g*frames + i), Data: make([]byte, size)}); err != nil {
						failed.Add(1)
						return
					}
					sent.Add(1)
				}
			}(g)
		}
		eventually(t, "pending to fill", func() bool { return c1.pendingLen() >= pendingMax })
		time.Sleep(20 * time.Millisecond) // a sender that is going to overrun has by now
		const oneBuffer = pendingMax + size + 256
		if n := c1.pendingLen(); n > oneBuffer {
			t.Fatalf("pending holds %d bytes, bound is %d plus one frame", n, pendingMax)
		}
		// What was accepted is what the blocked write holds plus what is
		// pending, each at most one buffer; everyone else must be blocked.
		if n := sent.Load() * size; n > 2*oneBuffer {
			t.Fatalf("%d bytes accepted against a stalled reader, want at most %d", n, 2*oneBuffer)
		}
		if resume {
			for k := 0; k < senders*frames; k++ {
				req, err := c2.RecvRequest()
				if err != nil {
					t.Fatalf("recv %d: %v", k, err)
				}
				req.Release()
			}
		} else {
			c1.Close()
		}
		wg.Wait()
		if resume && (failed.Load() != 0 || sent.Load() != senders*frames) {
			t.Fatalf("resumed reader: %d sent, %d failed", sent.Load(), failed.Load())
		}
		if !resume && failed.Load() == 0 {
			t.Fatal("closed conn: blocked senders returned no error")
		}
		c1.Close()
		c2.Close()
	}
}

// failConn is a net.Conn whose Write fails once more than left bytes
// have been asked of it.
type failConn struct {
	net.Conn
	left, writes atomic.Int64
}

var errInjected = errors.New("injected write failure")

func (f *failConn) Write(p []byte) (int, error) {
	f.writes.Add(1)
	if f.left.Add(-int64(len(p))) < 0 {
		return 0, errInjected
	}
	return f.Conn.Write(p)
}

// A write error latches: every concurrent Call fails (the flusher with
// the write error, piggybacked senders through the reader exit), none
// hangs, no waiter is left behind, and later sends get the latched error
// without touching the socket.
func TestWriteErrorLatches(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := &failConn{Conn: a}
	fc.left.Store(10)
	mc := newMuxConn(NewConn(fc))
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := mc.Call(ctx, &Request{Type: MsgStat, Seq: seq, Path: "/p"})
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("seq %d: resp=%v err=%v, want a connection error", seq, resp, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	eventually(t, "reader exit", mc.Dead)
	mc.mu.Lock()
	waiters := len(mc.wait)
	mc.mu.Unlock()
	if waiters != 0 {
		t.Fatalf("%d waiters left behind", waiters)
	}
	writes := fc.writes.Load()
	for i := 0; i < 3; i++ {
		if err := mc.Send(&Request{Type: MsgHeartbeat}); !errors.Is(err, errInjected) {
			t.Fatalf("send after failure: %v, want the latched error", err)
		}
	}
	if got := fc.writes.Load(); got != writes {
		t.Fatalf("latched conn wrote %d more times", got-writes)
	}
}

// The caller's buffer contract under lease poisoning: a small payload
// may be released the moment the send returns even though its frame is
// still queued behind a blocked flusher (it was copied at enqueue), a
// vectored one the moment the send returns (it was written). Neither
// may reach the wire poisoned.
func TestSendThenReleaseNeverPoisonsTheWire(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	// Nobody reads yet: the first sender takes the flusher role and
	// blocks in its write.
	go func() { _ = c1.SendResponse(&Response{Seq: 1}) }()
	eventually(t, "a blocked flusher", func() bool {
		c1.smu.Lock()
		defer c1.smu.Unlock()
		return c1.flushing && len(c1.pending) == 0
	})
	sendLeased := func(seq uint64, size int) {
		lease := Lease(size)
		for j := range lease {
			lease[j] = hammerByte(int(seq), 0, j)
		}
		resp := &Response{Seq: seq, Data: lease}
		resp.AttachLease(lease)
		if err := c1.SendResponse(resp); err != nil {
			t.Error(err)
		}
		resp.Release() // what server.worker does right after sendResponse
	}
	sendLeased(2, 4<<10)     // piggybacks: returns while its frame is still pending
	go sendLeased(3, 64<<10) // vectored: waits for the role, then writes
	for seq := uint64(1); seq <= 3; seq++ {
		resp, err := c2.RecvResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != seq {
			t.Fatalf("response %d arrived in place %d", resp.Seq, seq)
		}
		for j, v := range resp.Data {
			if v != hammerByte(int(seq), 0, j) {
				t.Fatalf("response %d byte %d = %#x, want %#x (poison is %#x)", seq, j, v, hammerByte(int(seq), 0, j), leasePoisonByte)
			}
		}
		resp.Release()
	}
}

// echoMux dials an echo responder that answers each request with a
// reply of the size the request asks for in Size.
func echoMux(tb testing.TB) *MuxConn {
	tb.Helper()
	client, server := tcpPair(tb)
	go func() {
		defer server.Close()
		reply := make([]byte, 4<<10)
		for {
			req, err := server.RecvRequest()
			if err != nil {
				return
			}
			resp := &Response{Seq: req.Seq, Data: reply[:req.Size]}
			req.Release()
			go func() { _ = server.SendResponse(resp) }() // replies come from workers, not the reader
		}
	}()
	mc := newMuxConn(client)
	tb.Cleanup(mc.Close)
	return mc
}

// BenchmarkMuxConnParallel is the rung for the send path: concurrent
// callers multiplexed over one loopback connection, 4 KiB requests with
// small replies and small requests with 4 KiB replies. frames/write is
// the group-commit batch size over both directions; at -cpu 1 with one
// caller (the lone request) it must be exactly 1.
func BenchmarkMuxConnParallel(b *testing.B) {
	for _, dir := range []string{"write4k", "read4k"} {
		b.Run(dir, func(b *testing.B) {
			mc := echoMux(b)
			var seq atomic.Uint64
			payload := make([]byte, 4<<10)
			call := func() {
				req := &Request{Type: MsgWrite, Seq: seq.Add(1), Path: "/bench/file", Data: payload}
				if dir == "read4k" {
					req.Type, req.Data, req.Size = MsgRead, nil, int64(len(payload))
				}
				resp, err := mc.Call(context.Background(), req)
				if err != nil {
					b.Error(err)
					return
				}
				resp.Release()
			}
			call() // the magic and the buffers' first growth stay out of the count
			frames0, writes0 := SendStats()
			b.ResetTimer()
			if runtime.GOMAXPROCS(0) == 1 {
				for i := 0; i < b.N; i++ {
					call()
				}
			} else {
				b.SetParallelism(4)
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						call()
					}
				})
			}
			b.StopTimer()
			frames1, writes1 := SendStats()
			b.ReportMetric(float64(frames1-frames0)/float64(writes1-writes0), "frames/write")
		})
	}
}
