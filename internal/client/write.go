package client

import (
	"bytes"
	"context"
	"fmt"
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
// or writeRetryTimeout passes (tightened to ctx's own deadline when that
// is sooner).
//
// Whatever ends the write — giving up, a failed re-stat, cancellation —
// it reports how much of p is durably in the file, which the handle's
// size already counts, so a POSIX-style short-write retry of the
// remainder is correct. Only a size the write cannot account for
// poisons the handle and reports nothing.
func (c *Client) write(ctx context.Context, f *File, p []byte) (int, error) {
	if f.damaged {
		return 0, fmt.Errorf("client: %s: earlier striped write failed mid-stripe; reopen after repair", f.path)
	}
	prev := f.size
	var landed int64  // the durable prefix of p: f.size - prev
	var at layoutInfo // where the next re-stat starts
	err := retry(ctx, writeRetryTimeout, func(again bool) (transient bool, err error) {
		if again {
			if at, transient, err = c.restat(ctx, f, at); err != nil {
				return transient, err
			}
			landed = f.size - prev
			switch {
			case landed < 0:
				// A degraded stat during a stalled partial cutover can
				// under-report the size (an uncommitted target's bytes sit
				// in its invisible pending buffer); that heals when the
				// cutover lands, so keep re-statting until the budget ends.
				return true, fmt.Errorf("client: %s: size fell by %d during layout change; reopen", f.path, -landed)
			case landed > int64(len(p)):
				// The size moved by more than this write — another writer
				// raced the handle, which the offset bookkeeping cannot
				// survive.
				return false, fmt.Errorf("client: %s: size moved by %d during layout change; reopen", f.path, landed)
			case landed == int64(len(p)):
				f.off = f.size
				return false, nil
			}
		}
		err = c.writeOnce(ctx, f, p[landed:])
		if err == nil {
			landed = int64(len(p))
		}
		return retryableLayout(err), err
	})
	if landed < 0 || landed > int64(len(p)) {
		f.damaged = true
		return 0, err
	}
	return int(landed), err
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

// writeOnce performs one striped append attempt at the handle's
// current layout, advancing the handle bookkeeping on success.
//
// The data plane here is zero-copy: p is sliced into per-server span
// LISTS (segments referencing p directly — never concatenated), each
// segment rides the wire as its own iovec, and each stripe's span goes
// out pipelined as a window of positional-append chunk RPCs.
func (c *Client) writeOnce(ctx context.Context, f *File, p []byte) error {
	set, unit := f.lay.set, f.lay.unit
	// Slice p into per-server span lists, preserving order within a
	// server. Each entry aliases p — no copy is made on the client side.
	spans := make([][][]byte, len(set))
	off := f.size
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
		return c.writeStripe(ctx, set[i], f.path, i, spans[i],
			fsys.LocalLen(f.size, i, len(set), unit), f.lay.gen)
	})
	for _, e := range errs {
		if e != nil && isCanceled(e) {
			// Cancellation mid-fan-out leaves the stripe state unknown,
			// and repairing under a dead ctx cannot work; poison the
			// handle (reopen re-learns the durable size) and surface the
			// typed error.
			f.damaged = true
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
		if rerr := c.repairWrite(ctx, f, spans); rerr != nil {
			if retryableLayout(rerr) {
				return rerr
			}
			f.damaged = true
			return fmt.Errorf("client: striped write failed and could not be repaired: %w", rerr)
		}
	}
	f.size += int64(len(p))
	f.off = f.size
	return nil
}

// writeStripe appends one server's span of a striped write at local
// offset off through the stripe pipeline (transport.WriteStripe), as
// positional appends on the stripe's affinity connection.
func (c *Client) writeStripe(ctx context.Context, addr, path string, stripeIdx int, segs [][]byte, off int64, layoutGen uint64) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	head := transport.Request{Job: c.job, Path: path, LayoutGen: layoutGen}
	return c.stripeErr(ctx, addr, transport.WriteStripe(ctx, pool, &c.seq, &head, stripeIdx, segs, off))
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
	skip := max(spanLen(segs)-need, 0)
	for len(segs) > 0 && skip >= int64(len(segs[0])) {
		skip -= int64(len(segs[0]))
		segs = segs[1:]
	}
	if len(segs) == 0 {
		return nil
	}
	return append([][]byte{segs[0][skip:]}, segs[1:]...)
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
func (c *Client) repairWrite(ctx context.Context, f *File, spans [][][]byte) error {
	set, unit := f.lay.set, f.lay.unit
	target := f.size
	for _, segs := range spans {
		target += spanLen(segs)
	}
	// The lengths are read under the handle's layout generation: a file
	// rebalanced since the write began answers stale-layout, and the
	// caller re-stats instead of topping up stripes that have moved.
	resps, err := strict(c.fanOut(ctx, set, f.path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat, LayoutGen: f.lay.gen}
	}))
	if err != nil {
		return fmt.Errorf("stripe lengths: %w", err)
	}
	for i, addr := range set {
		have := resps[i].Size
		need := fsys.LocalLen(target, i, len(set), unit) - have
		switch {
		case need > spanLen(spans[i]):
			err = fmt.Errorf("unexpected length %d", have)
		case need < 0:
			if err = c.verifySpan(ctx, f, addr, i, spans[i]); err != nil {
				err = fmt.Errorf("over-landed to %d: %w", have, err)
			}
		case need > 0:
			err = c.writeStripe(ctx, addr, f.path, i, spanTail(spans[i], need), have, f.lay.gen)
		}
		if err != nil {
			return fmt.Errorf("stripe %s: %w", addr, err)
		}
	}
	return nil
}

// verifySpan reads back the local span this write addressed on one
// stripe server and compares it to the bytes sent — the over-landed
// repair check. The span is read as a one-stripe file would be, into one
// span of got.
func (c *Client) verifySpan(ctx context.Context, f *File, addr string, i int, want [][]byte) error {
	start := fsys.LocalLen(f.size, i, len(f.lay.set), f.lay.unit)
	end := start + spanLen(want)
	got := make([]byte, end-start)
	if err := c.readStripe(ctx, addr, f.path, f.lay.gen, start, end, func(off, n int64) [][]byte {
		return localSpans(got, start, 0, 1, f.lay.unit, off, n)
	}); err != nil {
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
