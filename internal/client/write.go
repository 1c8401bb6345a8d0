package client

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"themisio/internal/fsys"
	"themisio/internal/transport"
)

// write appends len(p) bytes to the file (the server store is
// append-structured; sequential writes are the burst-buffer pattern).
// With striping, the data splits into stripe-unit chunks laid
// round-robin over the stripe set; each server's chunks are contiguous
// in its local stripe, so the whole write is at most one parallel
// request per stripe server.
//
// A stale-layout answer means join-time rebalancing is moving (or has
// moved) the file under the handle: the migration seal guarantees that
// either nothing or a contiguous prefix of this write survived the
// cutover, so the handle re-stats, measures the surviving prefix from
// the fresh global size, and appends the remainder under the rewritten
// layout. While the file is still sealed — the copy phase, before any
// cutover — the re-stat returns the old layout and the retry is
// refused again, so the write keeps retrying until the cutover lands
// or writeRetryTimeout passes; on giving up it reports how much of p
// is durably in the file (the handle's size already accounts for it),
// so a POSIX-style short-write retry of the remainder is correct.
//
// The seal-window retry budget is writeRetryTimeout, tightened to ctx's
// own deadline when that is sooner; cancellation mid-retry returns
// ErrCanceled with the durable prefix reported like any short write.
func (c *Client) write(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	if h.damaged {
		return 0, fmt.Errorf("client: %s: earlier striped write failed mid-stripe; reopen after repair", h.path)
	}
	err := c.writeOnce(ctx, h, p)
	if err == nil {
		return len(p), nil
	}
	if !retryableLayout(err) {
		return 0, err
	}
	prev := h.size
	deadline := budgetDeadline(ctx, writeRetryTimeout)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return 0, canceled(cerr)
		}
		if rerr := c.refreshHandle(ctx, h); rerr != nil {
			return 0, fmt.Errorf("client: %s: layout changed and re-stat failed: %w", h.path, rerr)
		}
		landed := h.size - prev
		if landed < 0 && !time.Now().After(deadline) {
			// A degraded stat during a stalled partial cutover can
			// under-report the size (an uncommitted target's bytes sit
			// in its invisible pending buffer); that heals when the
			// cutover lands, so keep re-statting instead of condemning
			// the handle.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if landed < 0 || landed > int64(len(p)) {
			// The size moved by more than this write — another writer
			// raced the handle, which the offset bookkeeping cannot
			// survive (true before this change too).
			h.damaged = true
			return 0, fmt.Errorf("client: %s: size moved by %d during layout change; reopen", h.path, landed)
		}
		if landed == int64(len(p)) {
			h.off = h.size
			return len(p), nil
		}
		err = c.writeOnce(ctx, h, p[landed:])
		if err == nil {
			return len(p), nil
		}
		if !retryableLayout(err) || time.Now().After(deadline) {
			return int(landed), err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// retryableLayout matches the transient conditions of a mid-migration
// file: the typed stale-layout answer, and a not-exist from a server
// the layout names — a commit that has not landed yet keeps the new
// stripe in an invisible pending buffer, so the entry appears briefly
// absent on that holder. A handle is only operated on after a
// successful open, so not-exist mid-operation is a routing transient
// (or a genuine unlink, which surfaces once the retry budget passes).
func retryableLayout(err error) bool {
	return transport.IsStaleLayout(err) || transport.IsNotExist(err)
}

// writeRetryTimeout bounds how long a write blocks waiting for a
// mid-migration file's cutover (the copy phase is policy-throttled, so
// a large file under a small compiled share can hold its seal a
// while).
const writeRetryTimeout = 10 * time.Second

// geometry is the handle's stripe servers and unit (normalised by
// layoutOf when the handle was built); an empty set means the ring had
// no server left to place a legacy file on.
func (c *Client) geometry(h *fileHandle) (set []string, unit int64, err error) {
	if len(h.set) == 0 {
		return nil, 0, fmt.Errorf("client: no servers left")
	}
	return h.set, h.unit, nil
}

// writeOnce performs one striped append attempt at the handle's
// current layout, advancing the handle bookkeeping on success.
//
// The data plane here is zero-copy: p is sliced into per-server span
// LISTS (segments referencing p directly — never concatenated), each
// segment rides the wire as its own iovec, and each stripe's span goes
// out pipelined as a window of positional-append chunk RPCs.
func (c *Client) writeOnce(ctx context.Context, h *fileHandle, p []byte) error {
	set, unit, err := c.geometry(h)
	if err != nil {
		return err
	}
	// Slice p into per-server span lists, preserving order within a
	// server. Each entry aliases p — no copy is made on the client side.
	spans := make([][][]byte, len(set))
	off := h.size
	for done := 0; done < len(p); {
		idx := int(off/unit) % len(set)
		n := int(unit - off%unit)
		if n > len(p)-done {
			n = len(p) - done
		}
		spans[idx] = append(spans[idx], p[done:done+n])
		done += n
		off += int64(n)
	}
	errs := fan(len(set), func(i int) bool { return len(spans[i]) > 0 }, func(i int) error {
		return c.writeStripe(ctx, set[i], h.path, i, spans[i],
			localLen(h.size, i, len(set), unit), h.layoutGen)
	})
	for _, e := range errs {
		if e != nil && isCanceled(e) {
			// Cancellation mid-fan-out leaves the stripe state unknown,
			// and repairing under a dead ctx cannot work; poison the
			// handle (reopen re-learns the durable size) and surface the
			// typed error.
			h.damaged = true
			return e
		}
	}
	if err := decisive(errs); err != nil {
		if retryableLayout(err) {
			// No repair across layouts (or against a holder whose commit
			// has not landed): the caller re-stats and retries.
			return err
		}
		// Some stripes may have appended and some not; a blind retry
		// would re-append the landed chunks and silently corrupt the
		// round-robin layout. Repair instead: top each stripe up to its
		// exact target length, and poison the handle if that fails.
		if rerr := c.repairWrite(ctx, h, set, spans, unit); rerr != nil {
			if retryableLayout(rerr) {
				return rerr
			}
			h.damaged = true
			return fmt.Errorf("client: striped write failed and could not be repaired: %w", rerr)
		}
	}
	h.size += int64(len(p))
	h.off = h.size
	return nil
}

// chunkBytes is the payload one pipelined stripe RPC aims for: write
// segments are grouped up to it (whole segments are never split) and
// read ranges are cut into it.
const chunkBytes = 512 << 10

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

// writeStripe sends one server's span of a striped write over the
// stripe's affinity connection in its pool, as pipelined positional
// appends: chunk RPCs that need no round trip between them, with
// explicit offsets keeping landing order-independent under the server's
// multiplexed worker pool. Chunks are groups of whole segments
// (subslices of segs: still zero-copy).
func (c *Client) writeStripe(ctx context.Context, addr, path string, stripeIdx int, segs [][]byte, off int64, layoutGen uint64) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	mc, err := pool.SlotFor(affinityKey(path, stripeIdx))
	if err != nil {
		c.markFailed(addr)
		return err
	}
	lo := 0
	next := func() *transport.Request {
		if lo == len(segs) {
			return nil
		}
		hi, glen := lo+1, int64(len(segs[lo]))
		for hi < len(segs) && glen+int64(len(segs[hi])) <= chunkBytes {
			glen += int64(len(segs[hi]))
			hi++
		}
		req := transport.GetRequest(transport.Request{
			Type: transport.MsgWrite, Path: path, DataSegs: segs[lo:hi],
			AppendAt: true, AppendOff: off, LayoutGen: layoutGen,
		})
		off += glen
		lo = hi
		return req
	}
	pick := func() (*transport.MuxConn, error) { return mc, nil }
	return c.pipeline(ctx, addr, &pool.Writes, pick, next, nil)
}

// spanLen is the byte length of a segment list.
func spanLen(segs [][]byte) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s))
	}
	return n
}

// spanTail returns the last need bytes of a segment list, as a segment
// list still referencing the original backing bytes.
func spanTail(segs [][]byte, need int64) [][]byte {
	if need <= 0 {
		return nil
	}
	var out [][]byte
	for i := len(segs) - 1; i >= 0 && need > 0; i-- {
		s := segs[i]
		if int64(len(s)) >= need {
			s = s[int64(len(s))-need:]
			need = 0
		} else {
			need -= int64(len(s))
		}
		out = append(out, s)
	}
	// Reverse into span order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// localLen returns how many bytes of a total-byte file laid round-robin
// in unit-sized chunks over nStripes servers land on stripe i. The one
// implementation lives in fsys (the migration planner trims sealed
// stripes with it too); the property test here covers that shared copy.
func localLen(total int64, i, nStripes int, unit int64) int64 {
	return fsys.LocalLen(total, i, nStripes, unit)
}

// repairWrite completes a partially-landed striped write: each stripe
// server reports its local length, and only the missing tail of its
// span is re-sent — through writeStripe, as positional appends from that
// length, so a chunk the server parked during the failed attempt lands
// in place or acks as a duplicate. Appends are per-server ordered, so
// the local length identifies exactly which chunks landed.
//
// A stripe longer than its target ("over-landed") cannot arise from
// this handle's own protocol: every chunk is sent exactly once per
// attempt, a landed chunk is detected here by its length and never
// re-sent, and a top-up whose ack is lost leaves the stripe exactly at
// target (need becomes 0 on the next inspection), never past it. The
// only producers of surplus bytes are a second writer on the same path
// (outside the handle contract) or a duplicated delivery through some
// future at-least-once transport. Rather than refusing outright, the
// repair reads this write's own span back: byte-identical content
// means every chunk of this write is correctly placed and the surplus
// is not this write's corruption to report; a mismatch is refused as
// before.
func (c *Client) repairWrite(ctx context.Context, h *fileHandle, set []string, spans [][][]byte, unit int64) error {
	target := h.size
	for _, segs := range spans {
		target += spanLen(segs)
	}
	// The lengths are read under the handle's layout generation: a file
	// rebalanced since the write began answers stale-layout, and the
	// caller re-stats instead of topping up stripes that have moved.
	resps, err := strict(c.fanOut(ctx, set, h.path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat, LayoutGen: h.layoutGen}
	}))
	if err != nil {
		return fmt.Errorf("stripe lengths: %w", err)
	}
	for i, addr := range set {
		have := resps[i].Size
		need := localLen(target, i, len(set), unit) - have
		switch {
		case need > spanLen(spans[i]):
			err = fmt.Errorf("unexpected length %d", have)
		case need < 0:
			if err = c.verifySpan(ctx, h, addr, i, len(set), unit, spans[i]); err != nil {
				err = fmt.Errorf("over-landed to %d: %w", have, err)
			}
		case need > 0:
			err = c.writeStripe(ctx, addr, h.path, i, spanTail(spans[i], need), have, h.layoutGen)
		}
		if err != nil {
			return fmt.Errorf("stripe %s: %w", addr, err)
		}
	}
	return nil
}

// verifySpan reads back the local span this write addressed on one
// stripe server and compares it to the bytes sent — the over-landed
// repair check. The span is read as a one-stripe file would be, where
// readStripe's scatter is the identity.
func (c *Client) verifySpan(ctx context.Context, h *fileHandle, addr string, i, nStripes int, unit int64, want [][]byte) error {
	start := localLen(h.size, i, nStripes, unit)
	end := start + spanLen(want)
	got := make([]byte, end-start)
	if err := c.readStripe(ctx, addr, h.path, 0, 1, unit, start, end, h.layoutGen, got, start, end); err != nil {
		return err
	}
	for _, seg := range want {
		if !bytes.Equal(got[:len(seg)], seg) {
			return fmt.Errorf("span content mismatch at local offset %d", start)
		}
		got = got[len(seg):]
	}
	return nil
}
