package client

import (
	"context"
	"fmt"
	"time"

	"themisio/internal/transport"
)

// read reads up to len(p) bytes from the handle's offset. A striped
// read touches each stripe server's locally-contiguous range once, in
// parallel, and reassembles the units into p. A stale-layout answer
// (the file was rebalanced under this handle) re-stats the path and
// retries against the migrated layout; the retry budget is
// statRetryTimeout, tightened to ctx's own deadline when that is sooner.
func (c *Client) read(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	n, err := c.readOnce(ctx, h, p)
	for deadline := budgetDeadline(ctx, statRetryTimeout); err != nil && retryableLayout(err) && !time.Now().After(deadline); {
		// A cutover can land between the re-stat and the retry (the
		// refresh may still see the old layout while the old holders
		// serve sealed reads); a bounded loop rides the window out. The
		// backoff keeps a crowd of handles on one migrating file from
		// turning the window into a stat storm against the servers the
		// policy is throttling.
		time.Sleep(10 * time.Millisecond)
		if cerr := ctx.Err(); cerr != nil {
			return 0, canceled(cerr)
		}
		if rerr := c.refreshHandle(ctx, h); rerr != nil {
			return 0, fmt.Errorf("client: %s: layout changed and re-stat failed: %w", h.path, rerr)
		}
		n, err = c.readOnce(ctx, h, p)
	}
	return n, err
}

// readOnce performs one read attempt at the handle's current layout.
func (c *Client) readOnce(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	set, unit, err := c.geometry(h)
	if err != nil {
		return 0, err
	}
	// The handle's tracked size clamps the read (no per-read stat storm
	// on the path that exists to scale bandwidth); writes through other
	// handles become visible on reopen.
	want := min(int64(len(p)), h.size-h.off)
	if want <= 0 {
		return 0, nil
	}
	g0, g1 := h.off, h.off+want
	// Each server's touched units are consecutive multiples of the unit
	// in its local stripe, so its byte range is contiguous: track the
	// local [lo,hi) per server, fetch it in chunks, and scatter the units
	// of each arriving chunk back (the identity on a one-stripe file).
	lo := make([]int64, len(set))
	hi := make([]int64, len(set))
	for i := range lo {
		lo[i] = -1
	}
	for u := g0 / unit; u <= (g1-1)/unit; u++ {
		idx := int(u) % len(set)
		segStart, segEnd := max(u*unit, g0), min((u+1)*unit, g1)
		base := (u / int64(len(set))) * unit
		if lo[idx] < 0 {
			lo[idx] = base + segStart - u*unit
		}
		hi[idx] = base + segEnd - u*unit
	}
	errs := fan(len(set), func(i int) bool { return lo[i] >= 0 }, func(i int) error {
		return c.readStripe(ctx, set[i], h.path, i, len(set), unit,
			lo[i], hi[i], h.layoutGen, p, g0, g1)
	})
	if err := decisive(errs); err != nil {
		return 0, err
	}
	h.off += want
	return int(want), nil
}

// readStripe fetches one server's locally-contiguous byte range
// [lo,hi) of a striped read as pipelined chunk RPCs — readahead that
// needs no round trip between chunks (reads at explicit offsets are
// idempotent) — and scatters each arriving chunk's units straight into
// p. Chunks spread over every pool connection (PickSpread): explicit
// offsets make order irrelevant, so the pool's paths carry the socket
// reads and frame decodes in parallel.
func (c *Client) readStripe(ctx context.Context, addr, path string, idx, nStripes int, unit int64, lo, hi int64, layoutGen uint64, p []byte, g0, g1 int64) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	off := lo
	next := func() *transport.Request {
		if off >= hi {
			return nil
		}
		req := transport.GetRequest(transport.Request{
			Type: transport.MsgRead, Path: path,
			Offset: off, Size: min(hi-off, chunkBytes), LayoutGen: layoutGen,
		})
		off += req.Size
		return req
	}
	land := func(req *transport.Request, resp *transport.Response) error {
		if resp.N < req.Size {
			return fmt.Errorf("client: short stripe read from %s: %d < %d", addr, resp.N, req.Size)
		}
		scatterLocal(p, g0, g1, idx, nStripes, unit, req.Offset, resp.Data[:req.Size])
		return nil
	}
	return c.pipeline(ctx, addr, &pool.Reads, pool.PickSpread, next, land)
}

// scatterLocal copies one stripe-local contiguous chunk (starting at
// local offset a on stripe idx) into its global positions in p, whose
// first byte is global offset g0. The round-robin inverse: local unit
// l/unit is global unit (l/unit)*nStripes+idx.
func scatterLocal(p []byte, g0, g1 int64, idx, nStripes int, unit, a int64, data []byte) {
	for l := a; l < a+int64(len(data)); {
		lu := l / unit
		unitEnd := (lu + 1) * unit
		end := a + int64(len(data))
		if end > unitEnd {
			end = unitEnd
		}
		g := (lu*int64(nStripes)+int64(idx))*unit + l%unit
		// Clamp to the requested global window (the first and last
		// touched units may be partial; a unit wholly outside the
		// window is dropped, not sliced out of range).
		src := data[l-a : end-a]
		if g >= g1 || g+int64(len(src)) <= g0 {
			l = end
			continue
		}
		if g < g0 {
			src = src[g0-g:]
			g = g0
		}
		if g+int64(len(src)) > g1 {
			src = src[:g1-g]
		}
		copy(p[g-g0:], src)
		l = end
	}
}
