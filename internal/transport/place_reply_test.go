package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers every request arriving on srv with what reply
// returns for it, until the connection closes.
func fakeServer(srv *Conn, reply func(req *Request) *Response) {
	for {
		req, err := srv.RecvRequest()
		if err != nil {
			return
		}
		resp := reply(req)
		resp.Seq = req.Seq
		req.Release()
		if srv.SendResponse(resp) != nil {
			return
		}
	}
}

// spanned cuts a fresh buffer of n bytes, filled with fill, into spans
// of the given lengths (the last takes the rest).
func spanned(n int, fill byte, lens ...int) ([]byte, [][]byte) {
	buf := bytes.Repeat([]byte{fill}, n)
	var spans [][]byte
	rest := buf
	for _, l := range lens {
		spans = append(spans, rest[:l])
		rest = rest[l:]
	}
	return buf, append(spans, rest)
}

// replyRow is a read reply, the spans its request registers and whether
// the reply lands in them.
type replyRow struct {
	name   string
	resp   Response
	n      int   // span memory
	lens   []int // all but the last span's length
	noSpan bool
	placed bool
}

// replyRows are TestPlacedReplyDecodesLikeLeased's rows; they seed
// FuzzRecvResponse too.
func replyRows() []replyRow {
	return []replyRow{
		{"4 KiB", Response{N: 4 << 10, Data: patterned(4 << 10), Caps: CapAppendAt}, 4 << 10, nil, false, true},
		{"512 KiB", Response{N: 512 << 10, Data: patterned(512 << 10), Caps: CapAppendAt}, 512 << 10, nil, false, true},
		{"a reply split over three spans", Response{N: 96 << 10, Data: patterned(96 << 10)}, 96 << 10, []int{10000, 50000}, false, true},
		{"an error reply", Response{Err: "fsys: no such file or directory"}, 4 << 10, nil, false, false},
		{"no spans", Response{N: 64 << 10, Data: patterned(64 << 10)}, 64 << 10, nil, true, false},
		{"spans too short", Response{N: 64 << 10, Data: patterned(64 << 10)}, 60 << 10, nil, false, false},
		{"spans too long", Response{N: 64 << 10, Data: patterned(60 << 10)}, 64 << 10, nil, false, false},
		{"a head longer than placeHeadMax", Response{Err: strings.Repeat("e", placeHeadMax), N: 4 << 10, Data: patterned(4 << 10)}, 4 << 10, nil, false, false},
	}
}

// A read reply whose payload is exactly the length of the spans its
// request registered lands in them and decodes to the same reply as on
// the leased path; every other reply is leased and leaves the spans
// alone.
func TestPlacedReplyDecodesLikeLeased(t *testing.T) {
	for _, c := range replyRows() {
		t.Run(c.name, func(t *testing.T) {
			cli, srv := pipePair()
			defer srv.Close()
			mc := newMuxConn(cli)
			defer mc.Close()
			go fakeServer(srv, func(*Request) *Response { r := c.resp; return &r })

			buf, spans := spanned(c.n, 0xaa, c.lens...)
			if c.noSpan {
				spans = nil
			}
			ch, err := mc.Start(&Request{Type: MsgRead, Seq: 5, Size: int64(c.n), ReplyInto: spans})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := <-ch
			if !ok {
				t.Fatal("connection lost")
			}
			want := new(Response)
			if err := decodeResponse(appendResponse(nil, &Response{Seq: 5, Err: c.resp.Err, N: c.resp.N, Data: c.resp.Data, Caps: c.resp.Caps}), want); err != nil {
				t.Fatal(err)
			}
			if got.placed != c.placed {
				t.Fatalf("placed=%v, want %v", got.placed, c.placed)
			}
			if c.placed {
				if got.Data != nil || got.frame != nil || !bytes.Equal(buf, want.Data) {
					t.Fatal("a placed payload is not in the spans, or a frame was leased for it")
				}
			} else if !bytes.Equal(got.Data, want.Data) || !bytes.Equal(buf, bytes.Repeat([]byte{0xaa}, c.n)) {
				t.Fatal("a leased reply differs from the leased decode, or wrote into the spans")
			}
			g, w := *got, *want
			g.Data, w.Data, g.frame, g.placed = nil, nil, nil, false
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("placed decode differs:\n got %+v\nwant %+v", g, w)
			}
			got.Recycle()
		})
	}
}

// everyThirdLeased is a replyDst that registers, for every exchange
// whose Seq is not a multiple of three, two spans of exactly the
// payload's length.
type everyThirdLeased struct{ buf []byte }

func (e *everyThirdLeased) claim(seq uint64, n int) [][]byte {
	if seq%3 == 0 {
		return nil
	}
	e.buf = make([]byte, n)
	return [][]byte{e.buf[:n/2], e.buf[n/2:]}
}

func (*everyThirdLeased) filled(err error) error { return err }

// FuzzRecvResponse: the stream receive a client's connection reader runs
// refuses exactly the frame bodies decodeResponse refuses and otherwise
// yields the same reply, its payload in the registered spans or in a
// lease.
func FuzzRecvResponse(f *testing.F) {
	for _, b := range fuzzSeedResponses() {
		f.Add(b)
	}
	for _, c := range replyRows() {
		r := c.resp
		r.Seq = 5
		f.Add(appendResponse(nil, &r))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dst := new(everyThirdLeased)
		want, got := new(Response), new(Response)
		wantErr := decodeResponse(body, want)
		err := recvRaw(body, func(c *Conn) error { return c.recvResponse(got, dst) })
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("receive: %v, decode: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		payload := got.Data
		if got.placed {
			payload = dst.buf
		}
		if !bytes.Equal(payload, want.Data) || got.placed && got.Data != nil {
			t.Fatalf("payload differs from the whole-frame decode (placed=%v)", got.placed)
		}
		g, w := *got, *want
		g.Data, w.Data, g.frame, g.placed = nil, nil, nil, false
		scrubNaN(g.Shares)
		scrubNaN(w.Shares)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("receive differs from the whole-frame decode:\n got %+v\nwant %+v", g, w)
		}
		got.Release()
	})
}

// stripePool is a one-connection pool whose server is reply.
func stripePool(t *testing.T, reply func(req *Request) *Response) *Pool {
	t.Helper()
	pool, err := NewPool("fake", 1, 4, func(string) (*Conn, error) {
		cli, srv := pipePair()
		go fakeServer(srv, reply)
		return cli, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// A reply that claims the whole chunk (N = Size) but carries another
// number of payload bytes fails the stripe, as the server's refusal and
// not a cut link: a short one used to slice past its frame (a panic) or
// hand the frame's stale bytes on as the file's, and a long one is not
// placed. The connection keeps serving.
func TestShortReplyPayloadFailsTheStripe(t *testing.T) {
	const chunk = 64 << 10
	data := patterned(chunk)
	for _, c := range []struct {
		name  string
		carry int
	}{
		{"a payload shorter than its lease class", 4602},
		{"a payload whose lease class has room for the chunk", 60 << 10},
		{"a payload longer than the chunk", chunk + 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			var bad atomic.Bool
			bad.Store(true)
			pool := stripePool(t, func(req *Request) *Response {
				if bad.Load() {
					return &Response{N: req.Size, Data: patterned(c.carry)}
				}
				return &Response{N: req.Size, Data: data[req.Offset : req.Offset+req.Size]}
			})
			var seq atomic.Uint64
			head := Request{Path: "/f"}
			buf := make([]byte, chunk)
			into := func(off, n int64) [][]byte { return [][]byte{buf[off : off+n]} }
			err := ReadStripe(context.Background(), pool, &seq, &head, 0, chunk, into)
			if err == nil || errors.Is(err, ErrLink) {
				t.Fatalf("a %d-byte payload for a %d-byte chunk: err=%v, want the stripe failed by its reply", c.carry, chunk, err)
			}
			bad.Store(false)
			if err := ReadStripe(context.Background(), pool, &seq, &head, 0, chunk, into); err != nil || !bytes.Equal(buf, data) {
				t.Fatalf("the next read on the connection: err=%v, bytes equal=%v", err, bytes.Equal(buf, data))
			}
		})
	}
}

// Cancelling a read whose reply is landing in the caller's memory, its
// peer stalled mid-payload, returns promptly; from then on the reader
// writes nothing into the spans — it reads the rest of the frame into
// nothing when the peer sends it — and the connection keeps serving.
func TestCancelledFillLeavesSpansAlone(t *testing.T) {
	const chunk = 256 << 10
	a, b := net.Pipe()
	raw, rx := b, NewConn(b) // the server writes raw frames and reads through rx
	stalled, resume := make(chan struct{}), make(chan struct{})
	go func() {
		defer raw.Close()
		req, err := rx.RecvRequest()
		if err != nil {
			return
		}
		frame := appendResponse(nil, &Response{Seq: req.Seq, N: chunk, Data: bytes.Repeat([]byte{0x11}, chunk)})
		stream := append(append(binMagic[:], byte(len(frame)), byte(len(frame)>>8), byte(len(frame)>>16), byte(len(frame)>>24)), frame...)
		half := len(stream) - chunk/2 - 20 // the head and about half the payload
		if _, err := raw.Write(stream[:half]); err != nil {
			return
		}
		close(stalled)
		<-resume
		if _, err := raw.Write(stream[half:]); err != nil {
			return
		}
		rx.magicSent = true // the raw frame carried it
		fakeServer(rx, func(req *Request) *Response {
			return &Response{N: req.Size, Data: patterned(int(req.Size))}
		})
	}()
	pool, err := NewPool("stall", 1, 4, func(string) (*Conn, error) { return NewConn(a), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	mc := pool.slots[0].mc.Load()

	var seq atomic.Uint64
	head := Request{Path: "/f"}
	buf := bytes.Repeat([]byte{0xaa}, chunk)
	into := func(off, n int64) [][]byte { return [][]byte{buf[off : off+n]} }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ReadStripe(ctx, pool, &seq, &head, 0, chunk, into) }()
	<-stalled
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mc.mu.Lock()
		filling := mc.filling
		mc.mu.Unlock()
		if filling {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the reply never started landing in the spans")
		}
	}
	start := time.Now()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled read returned %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cancelled read took %v to return", d)
	}
	at := append([]byte(nil), buf...)
	close(resume)

	next := make([]byte, 64<<10)
	if err := ReadStripe(context.Background(), pool, &seq, &head, 0, int64(len(next)), func(off, n int64) [][]byte {
		return [][]byte{next[off : off+n]}
	}); err != nil || !bytes.Equal(next, patterned(len(next))) {
		t.Fatalf("the next read on the connection: err=%v, bytes equal=%v", err, bytes.Equal(next, patterned(len(next))))
	}
	if !bytes.Equal(buf, at) {
		t.Fatal("the reader wrote into the spans after the cancelled read returned")
	}
}

// oneSpan is a replyDst that lands every reply in p.
type oneSpan struct{ p []byte }

func (o oneSpan) claim(_ uint64, n int) [][]byte {
	if n != len(o.p) {
		return nil
	}
	return [][]byte{o.p}
}

func (oneSpan) filled(err error) error { return err }

// BenchmarkRecvRead receives one 1 MiB read reply over loopback TCP into
// the caller's buffer: placed, read straight into it, against leased,
// read into a pooled frame and copied out.
func BenchmarkRecvRead(b *testing.B) {
	const chunk = 1 << 20
	for _, placed := range []bool{true, false} {
		name := "leased"
		if placed {
			name = "placed"
		}
		b.Run(name, func(b *testing.B) {
			tx, rx := tcpPair(b)
			defer tx.Close()
			defer rx.Close()
			data := patterned(chunk)
			go func() {
				for i := 0; i < b.N; i++ {
					if tx.SendResponse(&Response{Seq: uint64(i), N: chunk, Data: data}) != nil {
						return
					}
				}
			}()
			p := make([]byte, chunk)
			resp := new(Response)
			b.SetBytes(chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if placed {
					if err := rx.recvResponse(resp, oneSpan{p}); err != nil || !resp.placed {
						b.Fatalf("err=%v placed=%v", err, resp.placed)
					}
					continue
				}
				if err := rx.recvResponse(resp, nil); err != nil {
					b.Fatal(err)
				}
				copy(p, resp.Data)
				resp.Release()
			}
		})
	}
}
