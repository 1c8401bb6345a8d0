package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Striped I/O, the one byte mover: client reads and appends and the
// migrator's copy all move file bytes through ReadStripe and WriteStripe.
// The caller numbers the chunks from the counter its other calls on the
// pool use, and reads the error: ErrLink is the connection's failure,
// ctx's error cancellation, anything else the server's refusal.

// ChunkBytes is the payload one pipelined stripe request aims for: write
// segments are grouped up to it (whole segments are never split) and
// read ranges are cut into it.
const ChunkBytes = 512 << 10

// ErrLink marks a stripe stream cut by its connection rather than
// refused by its server. Whether that makes the server gone is the
// caller's decision.
var ErrLink = errors.New("transport: connection lost")

// ReadStripe fetches the byte range [lo,hi) of one server's local stripe
// as pipelined chunk reads — readahead that needs no round trip between
// chunks (reads at explicit offsets are idempotent) — straight into the
// caller's memory: dst(off, n) returns the spans the n bytes at local
// offset off fill, in order, and the connection reader reads each chunk's
// reply payload off the socket into them (Request.ReplyInto). A chunk
// whose reply carries anything but exactly its bytes fails the stripe.
// The spans are written until ReadStripe returns and not after, on
// success, error and cancellation alike. Chunks spread over every pool
// connection (PickSpread): explicit offsets make order irrelevant, so the
// pool's paths carry the socket reads in parallel. Every chunk carries
// head's fields (Job, Path, LayoutGen).
func ReadStripe(ctx context.Context, pool *Pool, seq *atomic.Uint64, head *Request, lo, hi int64, dst func(off, n int64) [][]byte) error {
	off := lo
	next := func() *Request {
		if off >= hi {
			return nil
		}
		req := GetRequest(*head)
		req.Type, req.Offset, req.Size = MsgRead, off, min(hi-off, ChunkBytes)
		req.ReplyInto = dst(off, req.Size)
		off += req.Size
		return req
	}
	check := func(req *Request, resp *Response) error {
		switch {
		case resp.N < req.Size:
			return fmt.Errorf("transport: short stripe read from %s: %d < %d", pool.addr, resp.N, req.Size)
		case !resp.placed:
			return fmt.Errorf("transport: stripe read from %s: reply carries %d payload bytes for a %d-byte chunk", pool.addr, len(resp.Data), req.Size)
		}
		return nil
	}
	return pipeline(ctx, pool.addr, seq, &pool.Reads, pool.PickSpread, next, check)
}

// WriteStripe appends segs to one server's local stripe from offset off
// as pipelined positional appends (AppendAt): chunk requests that need
// no round trip between them, with explicit offsets keeping landing
// order-independent under the server's concurrent execution slots. The
// chunks ride the stripe's affinity connection (SlotFor) and are groups
// of whole segments up to ChunkBytes — subslices of segs, so nothing is
// copied. Every chunk carries head's fields (Job, Path, LayoutGen, and
// From on a migration install).
func WriteStripe(ctx context.Context, pool *Pool, seq *atomic.Uint64, head *Request, stripe int, segs [][]byte, off int64) error {
	mc, err := pool.SlotFor(affinityKey(head.Path, stripe))
	if err != nil {
		return fmt.Errorf("%w to %s: %v", ErrLink, pool.addr, err)
	}
	lo := 0
	next := func() *Request {
		if lo == len(segs) {
			return nil
		}
		hi, glen := lo+1, int64(len(segs[lo]))
		for hi < len(segs) && glen+int64(len(segs[hi])) <= ChunkBytes {
			glen += int64(len(segs[hi]))
			hi++
		}
		req := GetRequest(*head)
		req.Type, req.DataSegs, req.AppendAt, req.AppendOff = MsgWrite, segs[lo:hi], true, off
		off += glen
		lo = hi
		return req
	}
	pick := func() (*MuxConn, error) { return mc, nil }
	return pipeline(ctx, pool.addr, seq, &pool.Writes, pick, next, nil)
}

// affinityKey maps a (path, stripe index) pair into the pool's slot
// space: the same stripe of the same file always picks the same slot
// (per-stripe send order rides one connection), while consecutive
// stripes of one file land on consecutive slots (the stripes of a file
// that shares servers spread over the pool's paths).
func affinityKey(path string, stripe int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() + uint64(stripe)
}

// pipeline is the one windowed issue/collect/cancel loop behind striped
// I/O: it starts the requests next yields (nil ends the stream) on the
// connections pick chooses, keeping as many in flight as win allows,
// and hands each successful reply to check (nil for writes, whose
// replies carry nothing). The budget is the pool's shared window, not a
// per-call constant: tokens are taken per chunk and returned per reply,
// so concurrent stripes to one server share it. An application error
// stops the stream and is returned once the in-flight replies are in; a
// transport failure is returned as ErrLink; cancellation abandons
// the in-flight chunks (their frames still return to the lease pool)
// and returns ctx's error promptly.
//
// The requests next yields come from GetRequest and belong to the
// pipeline from then on: a chunk whose reply was collected gives its
// request, its reply and its reply channel back to their pools (check
// must not keep either message), and an abandoned chunk gives back
// nothing — the connection's reader may still deliver into its channel.
func pipeline(ctx context.Context, addr string, seq *atomic.Uint64, win *Window,
	pick func() (*MuxConn, error), next func() *Request,
	check func(req *Request, resp *Response) error) error {
	type pending struct {
		req *Request
		mc  *MuxConn
		ch  chan *Response
	}
	var inflight []pending
	var appErr, netErr error
	// collect consumes the oldest in-flight reply; false means ctx ended
	// first and the reply is still owed.
	collect := func() bool {
		pd := inflight[0]
		var resp *Response
		var ok bool
		select {
		case resp, ok = <-pd.ch:
		case <-ctx.Done():
			return false
		}
		inflight = inflight[1:]
		win.Release()
		if !ok {
			if netErr == nil {
				netErr = fmt.Errorf("%w to %s", ErrLink, addr)
			}
			return true
		}
		RecycleReplyChan(pd.ch)
		switch {
		case appErr != nil: // the stream already failed; only drain
		case resp.Err != "":
			appErr = resp.Error()
		case check != nil:
			appErr = check(pd.req, resp)
		}
		pd.req.Recycle()
		resp.Recycle()
		return true
	}
	// acquire takes one window token, draining our own in-flight chunks
	// while the window is full — progress never depends on a token this
	// call itself is sitting on.
	acquire := func() bool {
		for !win.TryAcquire() {
			if len(inflight) == 0 {
				// Every token is held by other calls, which release
				// independently of us; block (honoring ctx).
				return win.Acquire(ctx) == nil
			}
			if !collect() || appErr != nil || netErr != nil {
				return false
			}
		}
		return true
	}
	complete := false
	for appErr == nil && netErr == nil && ctx.Err() == nil {
		req := next()
		if req == nil {
			complete = true
			break
		}
		if !acquire() {
			break
		}
		mc, err := pick()
		if err == nil {
			req.Seq = seq.Add(1)
			var ch chan *Response
			if ch, err = mc.Start(req); err == nil {
				inflight = append(inflight, pending{req, mc, ch})
				continue
			}
		}
		win.Release()
		netErr = fmt.Errorf("%w to %s: %v", ErrLink, addr, err)
	}
	for len(inflight) > 0 && collect() {
	}
	if len(inflight) > 0 || (!complete && appErr == nil && netErr == nil) {
		// ctx ended mid-stream. Abandon the waiters instead of draining
		// them: the reader releases the late frames.
		for _, pd := range inflight {
			pd.mc.Forget(pd.req.Seq, pd.ch)
			win.Release()
		}
		appErr = ctx.Err()
	}
	if netErr != nil {
		return netErr
	}
	return appErr
}
