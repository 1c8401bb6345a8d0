// The four ways the client sends a request. callAddr asks one server,
// fanOut asks many at once, call asks a path's ring owner and re-routes
// when it fails, and readStripe/writeStripe stream one stripe's chunks
// through transport's stripe pipeline. Everything else in the package is
// built from these.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"themisio/internal/transport"
)

// heartbeatPeriod is the cadence of the heartbeat goroutine, and how long
// callAddr waits for the reply to a control request. A variable so a
// test can shorten it.
var heartbeatPeriod = time.Second

// isControl reports the requests a server's connection reader answers
// itself, ahead of every queue: membership, policy set, share report.
// Their senders — the heartbeat goroutine among them — have no ctx of
// their own, so callAddr gives them a reply deadline.
func isControl(t transport.MsgType) bool {
	return t == transport.MsgClusterStatus || t == transport.MsgPolicySet || t == transport.MsgShareReport
}

// callAddr sends one request to one server — dialing it on first use —
// and fails the server over on a transport-level error, or when a
// control request goes unanswered for a heartbeat period (a server that
// accepts and never replies must not park its caller). The caller's own
// cancellation is not a server failure: the exchange is abandoned (the
// late response's frame still returns to the lease pool), nothing is
// sent under a ctx already dead, and the typed ErrCanceled surfaces.
//
// Only Data aliases a reply's leased frame (every other decoded field is
// a copy), so a reply without a payload — every namespace and control
// reply — gives its frame back here and stays readable.
func (c *Client) callAddr(ctx context.Context, addr, path string, req *transport.Request) (*transport.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	p, err := c.ensurePool(addr)
	if err != nil {
		return nil, err
	}
	mc, err := p.Pick()
	if err != nil {
		c.markFailed(addr)
		return nil, err
	}
	req.Seq, req.Job, req.Path = c.seq.Add(1), c.job, path
	reply := ctx
	if isControl(req.Type) {
		var cancel context.CancelFunc
		reply, cancel = context.WithTimeout(ctx, heartbeatPeriod)
		defer cancel()
	}
	resp, err := mc.Call(reply, req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		c.markFailed(addr)
		return nil, fmt.Errorf("client: %s: %w", addr, err)
	}
	if len(resp.Data) == 0 {
		resp.Release()
	}
	return resp, nil
}

// call routes a request to the path's owner server, retrying on the
// reassigned owner when the first choice has failed, and reports which
// server answered. Application errors (ErrNotExist and friends) surface
// immediately, with the reply that carried them; only transport-level
// failures trigger re-routing, and cancellation stops the retries.
func (c *Client) call(ctx context.Context, path string, req *transport.Request) (*transport.Response, string, error) {
	var lastErr error
	var addr string
	for attempt := 0; attempt < 4; attempt++ {
		var ok bool
		if addr, ok = c.ring.Lookup(path); !ok {
			return nil, "", fmt.Errorf("client: no servers left")
		}
		resp, err := c.callAddr(ctx, addr, path, req)
		if err == nil {
			return resp, addr, wireErr(resp.Error())
		}
		if lastErr = err; isCanceled(err) {
			return nil, addr, err
		}
	}
	return nil, addr, lastErr
}

// fan runs do(i) for every i in [0,n) that use reports and returns the
// per-index errors: inline when only one index is in use (most files
// are one stripe wide, and a goroutine plus a WaitGroup per call is
// pure overhead there), concurrently otherwise.
func fan(n int, use func(i int) bool, do func(i int) error) []error {
	errs := make([]error, n)
	used, last := 0, 0
	for i := 0; i < n; i++ {
		if use(i) {
			used++
			last = i
		}
	}
	if used == 1 {
		errs[last] = do(last)
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !use(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = do(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// decisive picks the error that decides a striped fan-out: a failure
// that is not a layout transient dominates (so partial landings go
// through repair rather than a blind re-stat and retry), then any.
func decisive(errs []error) error {
	var first error
	for _, e := range errs {
		if e != nil && !retryableLayout(e) {
			return e
		}
		if first == nil {
			first = e
		}
	}
	return first
}

// fanOut sends one request to each address, all at once, and collects
// the replies in address order. A server that fails on the transport is
// failed over, leaves its reply nil and decides the returned error
// (cancellation ends them all alike). Application errors stay in the
// replies: the caller knows which ones it tolerates (see strict for none).
func (c *Client) fanOut(ctx context.Context, addrs []string, path string, mk func(i int) *transport.Request) ([]*transport.Response, error) {
	resps := make([]*transport.Response, len(addrs))
	errs := fan(len(addrs), func(int) bool { return true }, func(i int) (err error) {
		resps[i], err = c.callAddr(ctx, addrs[i], path, mk(i))
		return err
	})
	for _, err := range errs {
		if err != nil {
			return resps, err
		}
	}
	return resps, nil
}

// strict is for the callers that tolerate no application error —
// resps, err := strict(c.fanOut(…)): the first one among the replies,
// classified with the exported sentinels, becomes the error.
func strict(resps []*transport.Response, err error) ([]*transport.Response, error) {
	for i := 0; err == nil && i < len(resps); i++ {
		if resps[i].Err != "" {
			err = wireErr(resps[i].Error())
		}
	}
	return resps, err
}

// stripeErr classifies what the stripe pipeline returned for addr: a
// cut link fails the server over, the end of ctx is ErrCanceled, and
// anything else is the server's refusal, classified as a wire error.
func (c *Client) stripeErr(ctx context.Context, addr string, err error) error {
	switch {
	case errors.Is(err, transport.ErrLink):
		c.markFailed(addr)
		return err
	case err != nil && errors.Is(err, ctx.Err()):
		return canceled(err)
	}
	return wireErr(err)
}
