package client

import (
	"context"

	"themisio/internal/transport"
)

// read reads up to len(p) bytes from the handle's offset. A striped
// read touches each stripe server's locally-contiguous range once, in
// parallel, its units landing straight in p. A stale-layout answer
// (the file was rebalanced under this handle) re-stats the path and
// retries against the migrated layout, within statRetryTimeout: a
// cutover can land between the re-stat and the retry (the re-stat may
// still see the old layout while the old holders serve sealed reads).
func (c *Client) read(ctx context.Context, f *File, p []byte) (n int, err error) {
	var at layoutInfo // where the next re-stat starts
	err = retry(ctx, statRetryTimeout, func(again bool) (transient bool, err error) {
		if again {
			if at, transient, err = c.restat(ctx, f, at); err != nil {
				return transient, err
			}
		}
		n, err = c.readOnce(ctx, f, p)
		return retryableLayout(err), err
	})
	return n, err
}

// readOnce performs one read attempt at the handle's current layout.
func (c *Client) readOnce(ctx context.Context, f *File, p []byte) (int, error) {
	// The handle's tracked size clamps the read (no per-read stat storm
	// on the path that exists to scale bandwidth); writes through other
	// handles become visible on reopen.
	want := min(int64(len(p)), f.size-f.off)
	if want <= 0 {
		return 0, nil
	}
	set, unit, g0 := f.lay.set, f.lay.unit, f.off
	lo, hi := localRanges(g0, g0+want, unit, len(set))
	errs := fan(len(set), func(i int) bool { return lo[i] >= 0 }, func(i int) error {
		return c.readStripe(ctx, set[i], f.path, f.lay.gen, lo[i], hi[i], func(off, n int64) [][]byte {
			return localSpans(p, g0, i, len(set), unit, off, n)
		})
	})
	if err := decisive(errs); err != nil {
		return 0, err
	}
	f.off += want
	return int(want), nil
}

// localRanges returns the local byte range [lo[i],hi[i]) of each of
// nStripes stripes that the global range [g0,g1) touches (lo[i] = -1:
// none). A stripe's touched units are consecutive multiples of the unit
// in its local stripe, so the range is contiguous, and every byte of it
// lies in [g0,g1): only the first and last touched units are partial.
func localRanges(g0, g1, unit int64, nStripes int) (lo, hi []int64) {
	lo = make([]int64, nStripes)
	hi = make([]int64, nStripes)
	for i := range lo {
		lo[i] = -1
	}
	for u := g0 / unit; u <= (g1-1)/unit; u++ {
		idx := int(u) % nStripes
		segStart, segEnd := max(u*unit, g0), min((u+1)*unit, g1)
		base := (u / int64(nStripes)) * unit
		if lo[idx] < 0 {
			lo[idx] = base + segStart - u*unit
		}
		hi[idx] = base + segEnd - u*unit
	}
	return lo, hi
}

// localSpans returns the spans of p, whose first byte is global offset
// g0, that the n bytes at local offset off of stripe idx fill, in order:
// the round-robin inverse, local unit l/unit being global unit
// (l/unit)*nStripes+idx. The bytes must lie in localRanges' range.
func localSpans(p []byte, g0 int64, idx, nStripes int, unit, off, n int64) [][]byte {
	if nStripes == 1 { // the identity: one span
		return [][]byte{p[off-g0 : off-g0+n]}
	}
	spans := make([][]byte, 0, (off+n-1)/unit-off/unit+1)
	for l := off; l < off+n; {
		end := min((l/unit+1)*unit, off+n)
		at := (l/unit*int64(nStripes)+int64(idx))*unit + l%unit - g0
		spans = append(spans, p[at:at+end-l])
		l = end
	}
	return spans
}

// readStripe fetches one server's locally-contiguous byte range [lo,hi)
// of a read through the stripe pipeline (transport.ReadStripe), whose
// connection readers land each chunk's bytes in the spans of the
// caller's buffer dst names.
func (c *Client) readStripe(ctx context.Context, addr, path string, layoutGen uint64, lo, hi int64, dst func(off, n int64) [][]byte) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	head := transport.Request{Job: c.job, Path: path, LayoutGen: layoutGen}
	return c.stripeErr(ctx, addr, transport.ReadStripe(ctx, pool, &c.seq, &head, lo, hi, dst))
}
