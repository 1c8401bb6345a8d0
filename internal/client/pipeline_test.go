package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/transport"
)

// chunkServer is an echo-style far end for the stripe pipeline: it
// answers writes with their length and reads with Size patterned
// bytes, each reply from its own goroutine after a short delay (so
// requests overlap), and tracks how many data requests were ever
// outstanding at once. With hold set, data replies wait for release.
type chunkServer struct {
	addr string

	outstanding, peak atomic.Int64
	hold              atomic.Bool
	release           chan struct{}

	mu   sync.Mutex
	seen []transport.Request // data requests, in arrival order (Data dropped)

	// script, when set before the first connection, sees every request
	// first, on the connection's reader: a non-nil reply is sent as it is
	// (Seq stamped) in place of everything below. The request's Data is
	// gone once script returns.
	script func(req *transport.Request) *transport.Response
}

func patternByte(off int64) byte { return byte(off*7 + 3) }

// chunkBytes is the payload of one pipelined stripe request.
const chunkBytes = transport.ChunkBytes

func startChunkServer(t *testing.T) *chunkServer {
	return startScriptedServer(t, nil)
}

func startScriptedServer(t *testing.T, script func(req *transport.Request) *transport.Response) *chunkServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &chunkServer{addr: ln.Addr().String(), release: make(chan struct{}), script: script}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn := transport.NewConn(raw)
			t.Cleanup(func() { conn.Close() })
			go s.serve(conn)
		}
	}()
	return s
}

func (s *chunkServer) serve(conn *transport.Conn) {
	for {
		req, err := conn.RecvRequest()
		if err != nil {
			return
		}
		if s.script != nil {
			if resp := s.script(req); resp != nil {
				resp.Seq = req.Seq
				req.Release()
				_ = conn.SendResponse(resp)
				continue
			}
		}
		resp := &transport.Response{Seq: req.Seq, Caps: transport.CapAppendAt}
		if req.Type != transport.MsgWrite && req.Type != transport.MsgRead {
			req.Release() // heartbeats, membership polls
			_ = conn.SendResponse(resp)
			continue
		}
		n := s.outstanding.Add(1)
		for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
		}
		rec := *req
		rec.Data = nil
		s.mu.Lock()
		s.seen = append(s.seen, rec)
		s.mu.Unlock()
		resp.N = int64(len(req.Data))
		req.Release()
		go func() {
			if rec.Type == transport.MsgRead {
				resp.N = rec.Size
				resp.Data = make([]byte, rec.Size)
				for i := range resp.Data {
					resp.Data[i] = patternByte(rec.Offset + int64(i))
				}
			}
			if s.hold.Load() {
				<-s.release
			} else {
				time.Sleep(2 * time.Millisecond)
			}
			s.outstanding.Add(-1)
			_ = conn.SendResponse(resp)
		}()
	}
}

func (s *chunkServer) requests() []transport.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Request(nil), s.seen...)
}

// inflightTokens reads the pool in-flight gauge for addr.
func inflightTokens(addr string) (n int64) {
	transport.PoolsSnapshot(func(a string, _, inflight int64) {
		if a == addr {
			n += inflight
		}
	})
	return n
}

// TestStripePipeline drives the one windowed loop as a stripe write and
// as a stripe read: the shared window is never exceeded, the stream is
// cut into chunkBytes RPCs, and cancellation returns at once with every
// token back.
func TestStripePipeline(t *testing.T) {
	// Recycled messages are scribbled: a request, reply or channel given
	// back to its pool while something still reads it shows up as a wrong
	// chunk or a failed call.
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	const chunks = 3 * pipelineWindow // three windows' worth on one connection
	payload := make([]byte, chunks*chunkBytes)
	for _, tc := range []struct {
		name string
		typ  transport.MsgType
		run  func(ctx context.Context, c *Client, addr string) error
	}{
		{"write", transport.MsgWrite, func(ctx context.Context, c *Client, addr string) error {
			// One segment per chunk: whole segments are never split.
			segs := make([][]byte, chunks)
			for i := range segs {
				segs[i] = payload[i*chunkBytes : (i+1)*chunkBytes]
			}
			return c.writeStripe(ctx, addr, "/w", 0, segs, 0, 0)
		}},
		{"read", transport.MsgRead, func(ctx context.Context, c *Client, addr string) error {
			n := int64(len(payload))
			return c.readStripe(ctx, addr, "/r", 0, 0, n, func(off, n int64) [][]byte {
				return localSpans(payload, 0, 0, 1, DefaultStripeUnit, off, n)
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startChunkServer(t)
			c, err := DialOpts(testJob("pipe"), []string{srv.addr}, Options{ConnsPerServer: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if err := tc.run(context.Background(), c, srv.addr); err != nil {
				t.Fatal(err)
			}
			reqs := srv.requests()
			if len(reqs) != chunks {
				t.Fatalf("%d chunk RPCs, want %d", len(reqs), chunks)
			}
			for i, r := range reqs {
				off := r.Offset
				if tc.typ == transport.MsgWrite {
					off = r.AppendOff
				}
				if r.Type != tc.typ || off != int64(i*chunkBytes) {
					t.Fatalf("chunk %d: %v at offset %d, want %v at %d", i, r.Type, off, tc.typ, i*chunkBytes)
				}
			}
			if peak := srv.peak.Load(); peak > pipelineWindow || peak < 2 {
				t.Fatalf("peak in-flight chunks = %d, want pipelined but within the window of %d", peak, pipelineWindow)
			}
			if n := inflightTokens(srv.addr); n != 0 {
				t.Fatalf("%d window tokens still held after a clean run", n)
			}

			// Cancellation: the server sits on a full window of replies;
			// the call must come back without them and give back every
			// token.
			srv.hold.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- tc.run(ctx, c, srv.addr) }()
			for deadline := time.Now().Add(2 * time.Second); srv.outstanding.Load() < pipelineWindow; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d chunks in flight, want a full window", srv.outstanding.Load())
				}
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled run returned %v, want ErrCanceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("canceled run waited for replies the server never sent")
			}
			if n := inflightTokens(srv.addr); n != 0 {
				t.Fatalf("%d window tokens leaked by cancellation", n)
			}
			if len(c.Servers()) != 1 {
				t.Fatal("cancellation must not fail the server over")
			}
			close(srv.release) // late replies find no waiter and are recycled by the reader

			// The abandoned requests and reply channels went to no pool (the
			// reader may still have been delivering into them), so the same
			// client runs the stream again, whole and in order.
			for deadline := time.Now().Add(2 * time.Second); srv.outstanding.Load() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d held chunks never answered", srv.outstanding.Load())
				}
			}
			before := len(srv.requests())
			if err := tc.run(context.Background(), c, srv.addr); err != nil {
				t.Fatalf("run after a canceled one: %v", err)
			}
			for i, r := range srv.requests()[before:] {
				if off := max(r.Offset, r.AppendOff); r.Type != tc.typ || off != int64(i*chunkBytes) {
					t.Fatalf("after cancellation, chunk %d: %v at offset %d, want %v at %d", i, r.Type, off, tc.typ, i*chunkBytes)
				}
			}
			if tc.typ == transport.MsgRead {
				for i := 0; i < len(payload); i += 4093 {
					if payload[i] != patternByte(int64(i)) {
						t.Fatalf("after cancellation, byte %d: got %#x want %#x", i, payload[i], patternByte(int64(i)))
					}
				}
			}
		})
	}
}

// A one-stripe file takes the striped read path like any other: a
// 3 MiB read goes out as 512 KiB chunks, scatters back as the identity,
// and clamps to the handle's size.
func TestWidthOneReadIsChunked(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	srv := startChunkServer(t)
	c, err := DialOpts(testJob("w1"), []string{srv.addr}, Options{ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const size = 3 << 20
	f := &File{path: "/one", size: size, lay: layoutInfo{stripes: 1, unit: DefaultStripeUnit, set: []string{srv.addr}}}
	buf := make([]byte, size+4096) // asks past EOF
	n, err := c.read(context.Background(), f, buf)
	if err != nil || n != size {
		t.Fatalf("read: n=%d err=%v, want %d (clamped to the handle's size)", n, err, size)
	}
	for i := 0; i < size; i += 4093 {
		if buf[i] != patternByte(int64(i)) {
			t.Fatalf("byte %d: got %#x want %#x", i, buf[i], patternByte(int64(i)))
		}
	}
	reqs := srv.requests()
	if len(reqs) != size/chunkBytes {
		t.Fatalf("%d read RPCs, want %d", len(reqs), size/chunkBytes)
	}
	for i, r := range reqs {
		if r.Size != chunkBytes || r.Offset != int64(i*chunkBytes) {
			t.Fatalf("chunk %d: %d bytes at %d, want %d at %d", i, r.Size, r.Offset, chunkBytes, i*chunkBytes)
		}
	}
	if n, err := c.read(context.Background(), f, buf); n != 0 || err != nil {
		t.Fatalf("read at EOF: n=%d err=%v, want 0, nil", n, err)
	}
}
