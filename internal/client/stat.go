package client

import (
	"context"
	"fmt"
	"slices"
	"time"

	"themisio/internal/fsys"
	"themisio/internal/transport"
)

// Stat returns size and directory flag. A striped file's size is the
// sum of its stripes.
func (c *Client) Stat(path string) (size int64, isDir bool, err error) {
	return c.StatContext(context.Background(), path)
}

// StatContext is Stat honoring ctx: the internal retry budgets tighten
// to ctx's deadline, and cancellation returns ErrCanceled.
func (c *Client) StatContext(ctx context.Context, path string) (size int64, isDir bool, err error) {
	size, isDir, _, err = c.statFull(ctx, path)
	return size, isDir, err
}

// Layout returns a file's recorded stripe servers (in stripe order) and
// stripe width — the operator's view of where a file's bytes live,
// which rebalancing rewrites as the fabric grows.
func (c *Client) Layout(path string) (set []string, stripes int, err error) {
	_, _, lay, err := c.statFull(context.Background(), path)
	if err != nil {
		return nil, 0, err
	}
	return lay.set, lay.stripes, nil
}

// layout is a file's stripe geometry as recorded in its metadata.
type layoutInfo struct {
	stripes int
	unit    int64
	set     []string
	gen     uint64 // layout generation; echoed on reads and writes
}

// layoutOf is the stripe geometry a stat, create or unlink reply
// describes, with what a legacy entry leaves unrecorded filled in: width
// 1, the configured unit, the ring's placement for the set. Servers
// refuse a multi-stripe create with no set, so only width-1 and restored
// legacy entries reach that fallback.
func (c *Client) layoutOf(path string, r *transport.Response) layoutInfo {
	lay := layoutInfo{stripes: max(r.Stripes, 1), unit: r.StripeUnit, set: r.StripeSet, gen: r.LayoutGen}
	if lay.unit <= 0 {
		lay.unit = c.opts.StripeUnit
	}
	if len(lay.set) == 0 {
		lay.set = c.ring.LookupN(path, lay.stripes)
	}
	return lay
}

// statFull stats the path's ring owner to learn what it is — a
// directory, an unstriped file, or a striped file whose layout the
// creating client recorded in the metadata — then sums stripe sizes
// across the recorded stripe set. If the ring owner has drifted since
// creation and no longer holds the entry, every connected server is
// consulted before giving up (metadata is findable as long as any
// stripe server lives).
//
// The stripe-size fan-out is layout-generation-checked: every stripe
// server must answer under the same generation the layout was read at,
// so a stat can never sum sizes across two different layouts of a
// mid-migration file. A stale answer anywhere — or a not-exist from a
// stripe member after the layout itself was readable, which is a
// target whose commit has not landed yet — re-reads the layout (a
// rebalance cutover lands within a couple of round trips; the first
// retry refreshes membership so freshly joined owners are dialed).
func (c *Client) statFull(ctx context.Context, path string) (size int64, isDir bool, lay layoutInfo, err error) {
	staleDeadline := budgetDeadline(ctx, statRetryTimeout)
	goneDeadline := budgetDeadline(ctx, statGoneRetryTimeout)
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, false, lay, canceled(cerr)
		}
		var transient bool
		size, isDir, lay, transient, err = c.statOnce(ctx, path, false)
		if err == nil || !transient {
			return size, isDir, lay, err
		}
		if transport.IsStaleLayout(err) {
			if time.Now().After(staleDeadline) {
				return size, isDir, lay, err
			}
		} else if time.Now().After(goneDeadline) {
			// A stripe member still answering not-exist past every
			// cutover window holds a genuinely lost stripe (a volatile
			// member crash-restarted empty, say): fall back to summing
			// the members that do hold data — a stripe lost to failover
			// contributes nothing, and the stat must not fail just
			// because the recorded layout names it, or Unlink could
			// never clean such files up.
			size, isDir, lay, _, err = c.statOnce(ctx, path, true)
			return size, isDir, lay, err
		}
		if attempt == 0 {
			c.refreshMembership()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statRetryTimeout bounds how long a stat chases a moving layout — the
// seal-to-cutover window of one file's migration, which stretches with
// machine load since the copy is policy-throttled. Only transient
// outcomes retry, so genuine errors still fail on the first attempt.
// statGoneRetryTimeout is the shorter budget for a stripe member
// answering not-exist: a mid-cutover target commits within a couple of
// round trips, while a genuinely lost stripe never will — after it,
// the stat degrades to the tolerant partial sum. Both are defaults: a
// ctx deadline sooner than the budget tightens it (budgetDeadline).
const (
	statRetryTimeout     = 2 * time.Second
	statGoneRetryTimeout = 500 * time.Millisecond
)

// statOnce is one layout read + generation-checked stripe-size sum.
// transient marks outcomes worth re-reading the layout for: a
// stale-layout answer anywhere, or a not-exist from the stripe
// fan-out (the layout was just readable, so the member is a
// mid-cutover target, not a deleted file).
func (c *Client) statOnce(ctx context.Context, path string, tolerateMissing bool) (size int64, isDir bool, lay layoutInfo, transient bool, err error) {
	resp, owner, err := c.call(ctx, path, &transport.Request{Type: transport.MsgStat})
	if err != nil {
		var moving bool
		var cerr error
		if resp, moving, cerr = c.statAny(ctx, path, owner); cerr != nil {
			return 0, false, lay, false, cerr
		}
		if resp == nil {
			return 0, false, lay, moving || transport.IsStaleLayout(err), err
		}
	}
	if resp.IsDir {
		return 0, true, layoutInfo{stripes: 1}, false, nil
	}
	lay = c.layoutOf(path, resp)
	if len(lay.set) == 1 {
		return resp.Size, false, lay, false, nil
	}
	// Sum sizes over the reachable stripe servers only: a stripe lost
	// to failover contributes nothing (its bytes are gone), and the
	// stat itself must not fail just because the layout names a dead
	// member — Unlink needs the layout to clean such files up.
	live := c.reachable(lay.set, "")
	gen := lay.gen
	if tolerateMissing {
		gen = 0
	}
	resps, err := c.fanOut(ctx, live, path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat, LayoutGen: gen}
	})
	if tolerateMissing {
		// Degraded mode (statFull's not-exist budget ran out): the partial
		// sum below, over the members that do hold the entry — the
		// pre-rebalance partial-loss semantics.
		if isCanceled(err) {
			return 0, false, lay, false, err
		}
	} else if _, err = strict(resps, err); err != nil {
		return 0, false, lay, retryableLayout(err), err
	} else if len(live) == len(lay.set) {
		// The authoritative size is the consistent round-robin prefix of
		// the per-stripe sizes, not their raw sum: a write racing a
		// migration seal can land a chunk on a not-yet-frozen stripe
		// while an earlier chunk is refused, and counting that orphan
		// would make Write's surviving-prefix arithmetic resume past a
		// hole — acknowledging bytes the cutover trim then discards.
		sizes := make([]int64, len(resps))
		for i, r := range resps {
			sizes[i] = r.Size
		}
		return fsys.ConsistentTotal(sizes, lay.unit), false, lay, false, nil
	}
	for _, r := range resps {
		if r != nil && r.Err == "" {
			size += r.Size
		}
	}
	return size, false, lay, false, nil
}

// reachable is the servers among addrs, but one, that the client holds a
// pool to or can dial one to now: members it has not met yet (a migrated
// layout naming a freshly joined server) are connected on demand, dead
// ones dropped.
func (c *Client) reachable(addrs []string, but string) (live []string) {
	for _, addr := range addrs {
		if addr == but {
			continue
		}
		if _, err := c.ensurePool(addr); err == nil {
			live = append(live, addr)
		}
	}
	return live
}

// statAny asks every connected server but asked, which has just answered
// for itself, all at once, and returns the first hit in address order —
// the fallback path for entries the drifted ring owner no longer holds.
// With no hit, moving reports that some server answered stale-layout: the
// round is not atomic, so a cutover landing in the middle of it shows the
// new holder before its commit and the old one after its drop, and the
// miss is worth a retry rather than a not-exist verdict. Only
// cancellation is an error; a server that failed is one more miss.
func (c *Client) statAny(ctx context.Context, path, asked string) (hit *transport.Response, moving bool, err error) {
	rest := slices.DeleteFunc(c.Servers(), func(addr string) bool { return addr == asked })
	resps, err := c.fanOut(ctx, rest, path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat}
	})
	if isCanceled(err) {
		return nil, false, err
	}
	for _, r := range resps {
		if r != nil && r.Err == "" {
			return r, false, nil
		}
		moving = moving || r != nil && transport.IsStaleLayout(r.Error())
	}
	return nil, moving, nil
}

// refreshHandle re-learns a file's layout and size after a
// stale-layout answer: the cutover of a stripe migration rewrote the
// metadata, and the handle's cached stripe set predates it.
func (c *Client) refreshHandle(ctx context.Context, h *fileHandle) error {
	size, isDir, lay, err := c.statFull(ctx, h.path)
	if err != nil {
		return err
	}
	if isDir {
		return fmt.Errorf("client: %s: replaced by a directory", h.path)
	}
	h.size = size
	h.stripes, h.unit, h.set, h.layoutGen = lay.stripes, lay.unit, lay.set, lay.gen
	return nil
}
