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
// across the recorded stripe set. A server the file migrated away from
// answers stale-layout naming the layout the file went to, and the stat
// goes there, one hop per attempt along a chain of moves. If the owner
// holds neither the entry nor such a forward (the client's ring names a
// joiner the file has not reached yet, or the owner was draining at
// create), every connected server is consulted before giving up.
//
// The stripe-size fan-out is layout-generation-checked: every stripe
// server must answer under the same generation the layout was read at,
// so a stat can never sum sizes across two different layouts of a
// mid-migration file. A stale answer anywhere — or a not-exist from a
// stripe member after the layout itself was readable, which is a
// target whose commit has not landed yet — re-reads the layout.
func (c *Client) statFull(ctx context.Context, path string) (size int64, isDir bool, lay layoutInfo, err error) {
	gone := budgetDeadline(ctx, statGoneRetryTimeout)
	err = retry(ctx, statRetryTimeout, func(bool) (transient bool, err error) {
		// A transient attempt's lay is where the next one starts.
		size, isDir, lay, transient, err = c.statOnce(ctx, path, lay, false)
		if transient && !transport.IsStaleLayout(err) && time.Now().After(gone) {
			// A stripe member still answering not-exist past every
			// cutover window holds a genuinely lost stripe (a volatile
			// member crash-restarted empty, say): fall back to summing
			// the members that do hold data — a stripe lost to failover
			// contributes nothing, and the stat must not fail just
			// because the recorded layout names it, or Unlink could
			// never clean such files up.
			size, isDir, lay, _, err = c.statOnce(ctx, path, layoutInfo{}, true)
			return false, err
		}
		return transient, err
	})
	return size, isDir, lay, err
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

// statOnce is one layout read + generation-checked stripe-size sum. The
// layout is at when that names one (a forward an earlier attempt was
// given), else the ring owner's answer, or a forward in its place.
// transient marks outcomes worth another attempt: a stale-layout answer
// anywhere, or a not-exist from the stripe fan-out (the layout was just
// readable, so the member is a mid-cutover target, not a deleted file).
// On a transient error lay is where the next attempt starts: the layout
// a stripe member forwarded to, or none (the ring owner again).
func (c *Client) statOnce(ctx context.Context, path string, at layoutInfo, tolerateMissing bool) (size int64, isDir bool, lay layoutInfo, transient bool, err error) {
	fwd := at.gen != 0 // lay came from a forward
	if lay = at; !fwd {
		resp, owner, err := c.call(ctx, path, &transport.Request{Type: transport.MsgStat})
		if err != nil && !c.forwards(resp) {
			resp, err = c.statAny(ctx, path, owner, err)
		}
		switch {
		case c.forwards(resp):
			lay, fwd = c.layoutOf(path, resp), true
		case err != nil:
			return 0, false, lay, transport.IsStaleLayout(err), err
		case resp.IsDir:
			return 0, true, layoutInfo{stripes: 1}, false, nil
		default:
			if lay = c.layoutOf(path, resp); len(lay.set) == 1 {
				return resp.Size, false, lay, false, nil
			}
		}
	}
	if len(lay.set) == 0 { // a legacy entry, and the ring has lost every server
		return 0, false, lay, false, fmt.Errorf("client: no servers left")
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
		// A member the file has moved on from names the next hop. A
		// forward names holders that committed before the marker was
		// left, so a not-exist among them is an unlink, not a cutover.
		for _, r := range resps {
			if c.forwards(r) && r.LayoutGen > lay.gen {
				return 0, false, c.layoutOf(path, r), true, wireErr(r.Error())
			}
		}
		return 0, false, layoutInfo{}, retryableLayout(err) && !(fwd && transport.IsNotExist(err)), err
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

// forwards reports whether r is a moved marker's answer — stale-layout,
// naming the layout the file went to — and every member of that layout
// is reachable: one that is not (it failed since, and the file moved on
// again) leaves the file to be found another way.
func (c *Client) forwards(r *transport.Response) bool {
	return r != nil && r.LayoutGen != 0 && transport.IsStaleLayout(r.Error()) &&
		len(c.reachable(r.StripeSet, "")) == len(r.StripeSet)
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
// miss for itself, all at once — the fallback for a path whose ring owner
// holds neither the entry nor a moved marker. It returns the first
// holder's answer in address order or, with none, the first stale-layout
// one: the round is not atomic, so a cutover landing in the middle of it
// shows the new holder before its commit and the old one after its
// drop, and that marker says where the file went. With neither, miss
// stands. A server that failed is one more miss; cancellation ends the
// round with ErrCanceled.
func (c *Client) statAny(ctx context.Context, path, asked string, miss error) (*transport.Response, error) {
	rest := slices.DeleteFunc(c.Servers(), func(addr string) bool { return addr == asked })
	resps, err := c.fanOut(ctx, rest, path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat}
	})
	if isCanceled(err) {
		return nil, err
	}
	var stale *transport.Response
	for _, r := range resps {
		switch {
		case r == nil:
		case r.Err == "":
			return r, nil
		case stale == nil && transport.IsStaleLayout(r.Error()):
			stale = r
		}
	}
	if stale != nil {
		return stale, wireErr(stale.Error())
	}
	return nil, miss
}

// restat re-learns an open file's size and layout with one stat attempt
// starting at at (see statOnce) — a read or write retry's step after a
// stale-layout answer: the cutover of a stripe migration rewrote the
// metadata, and the handle's layout predates it. transient is statOnce's,
// and next is where the following re-stat starts.
func (c *Client) restat(ctx context.Context, f *File, at layoutInfo) (next layoutInfo, transient bool, err error) {
	size, isDir, lay, transient, err := c.statOnce(ctx, f.path, at, false)
	switch {
	case err != nil:
		return lay, transient, fmt.Errorf("client: %s: layout changed and re-stat failed: %w", f.path, err)
	case isDir:
		return layoutInfo{}, false, fmt.Errorf("client: %s: replaced by a directory", f.path)
	}
	f.size, f.lay = size, lay
	return layoutInfo{}, false, nil
}
