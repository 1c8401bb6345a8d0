// Package client is the ThemisIO client library: the POSIX-compliant
// interface of §4.4 (open/close/read/write/lseek/stat/opendir/readdir/
// unlink) over the wire protocol, with job metadata embedded in every
// request and periodic heartbeats to every server (§4.1). On a real
// deployment these entry points are reached by intercepting the libc
// symbols (override/trampoline, §4.4); here they are called directly —
// the arbitration problem is identical either way.
//
// With multiple servers the client places each path on servers via the
// same consistent hash the servers' file system uses. Files may be
// striped: data is split into stripe-unit chunks laid round-robin
// across the path's stripe set, and reads and writes fan out to the
// stripe servers in parallel, so one client's aggregate bandwidth
// scales with the server count. A server that stops answering is
// removed from the client's ring, so its segment reassigns and I/O
// continues on the survivors (the client half of failover).
package client

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/chash"
	"themisio/internal/cluster"
	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// Options tunes a client beyond the defaults. DialOpts validates: a
// negative field, or a StripeUnit that is not a power of two, is refused
// with an error matching ErrInvalidOptions (zero always means "default"
// — the zero Options value stays valid).
type Options struct {
	// Stripes is the number of servers each file's data spans (clipped
	// to the live server count; zero means 1, the unstriped placement
	// of the seed implementation).
	Stripes int
	// StripeUnit is the bytes written to one server before moving to
	// the next (zero selects DefaultStripeUnit). Must be a power of two:
	// the round-robin arithmetic assumes it.
	StripeUnit int64
	// ConnsPerServer is the connection-pool width per server: how many
	// TCP connections the client multiplexes its traffic to one server
	// over. Writes pin each (file, stripe) to one slot so per-stripe
	// append order is preserved; read chunks spread across all slots.
	// Zero selects DefaultConnsPerServer; 1 is a single connection.
	ConnsPerServer int
}

// DefaultStripeUnit is the stripe chunk size, matching the server-side
// file system's unit.
const DefaultStripeUnit = 1 << 20

// DefaultConnsPerServer is the pool width when Options.ConnsPerServer
// is zero.
const DefaultConnsPerServer = 4

// validateOptions refuses nonsense option values with typed usage
// errors instead of silent clamps. Zero always means "default".
func validateOptions(opts Options) error {
	if opts.Stripes < 0 {
		return fmt.Errorf("client: %w: Stripes %d is negative (0 means default)", ErrInvalidOptions, opts.Stripes)
	}
	if u := opts.StripeUnit; u < 0 || u&(u-1) != 0 {
		return fmt.Errorf("client: %w: StripeUnit %d is not a power of two (0 means default)", ErrInvalidOptions, u)
	}
	if opts.ConnsPerServer < 0 {
		return fmt.Errorf("client: %w: ConnsPerServer %d is negative (0 means default)", ErrInvalidOptions, opts.ConnsPerServer)
	}
	return nil
}

// Client is one application process's connection to the burst buffer.
type Client struct {
	job  policy.JobInfo
	ring *chash.Ring
	opts Options // defaults applied

	// peers holds the connection pool of every server the client has
	// reached. Its cooldown fast-fails a member that recently failed:
	// recorded stripe sets keep naming dead members, and re-dialing one
	// (a full dial timeout) on every stat would stall the client; a
	// member that comes back (restart, rejoin) is re-dialed after it.
	peers *transport.Peers

	mu       sync.Mutex
	draining map[string]bool // members to avoid for new placement
	seq      atomic.Uint64

	hbStop chan struct{}
	hbDone chan struct{}
}

type fileHandle struct {
	path string
	off  int64
	// size is the known global size — the append position for striped
	// writes and the clamp for reads. It is set at Open and advanced by
	// Write; extensions made through other handles become visible on
	// reopen.
	size    int64
	stripes int      // the file's stripe width (from metadata, not config)
	unit    int64    // the file's stripe unit (from metadata, not config)
	set     []string // the file's recorded stripe servers, in order
	// layoutGen is the layout generation the cached set was read under;
	// every read and write echoes it, so a server that rebalanced the
	// file answers stale-layout instead of serving re-striped bytes, and
	// the handle re-stats and retries (see refreshHandle).
	layoutGen uint64
	// damaged marks a handle whose striped write could not be completed
	// or repaired; further writes would interleave wrongly, so they are
	// refused instead of silently corrupting the file.
	damaged bool
}

// The client's peer-set parameters: pipelineWindow in-flight chunk RPCs
// per pool connection (the pool's write and read windows are each
// pipelineWindow × pool size), a 2 s dial, and a 3 s whole-server
// cooldown after a failed dial or a fail-over.
const (
	pipelineWindow  = 8
	peerDialTimeout = 2 * time.Second
	peerCooldown    = 3 * time.Second
)

// Dial connects to the given servers under the job identity with
// default options (no striping). The client begins heartbeating
// immediately so the servers' job monitors see the job before its
// first I/O.
func Dial(job policy.JobInfo, servers []string) (*Client, error) {
	return DialOpts(job, servers, Options{})
}

// DialOpts connects with explicit striping and pooling options,
// refusing invalid option values (see Options and ErrInvalidOptions).
// Every listed server must be reachable.
func DialOpts(job policy.JobInfo, servers []string, opts Options) (*Client, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("client: no servers")
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if opts.Stripes == 0 {
		opts.Stripes = 1
	}
	if opts.StripeUnit == 0 {
		opts.StripeUnit = DefaultStripeUnit
	}
	if opts.ConnsPerServer == 0 {
		opts.ConnsPerServer = DefaultConnsPerServer
	}
	c := &Client{
		job:      job,
		ring:     chash.New(0),
		opts:     opts,
		peers:    transport.NewPeers(opts.ConnsPerServer, pipelineWindow, peerDialTimeout, peerCooldown),
		draining: map[string]bool{},
		hbStop:   make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
	for _, addr := range servers {
		if _, err := c.ensurePool(addr); err != nil {
			c.peers.Close()
			return nil, err
		}
	}
	c.heartbeatAll()
	go c.heartbeatLoop()
	return c, nil
}

// Close notifies servers and tears down connections (§4.2: "when a
// client exits, it notifies the ThemisIO servers to destroy the
// corresponding mapping entry").
func (c *Client) Close() {
	close(c.hbStop)
	<-c.hbDone
	for _, p := range c.peers.Pools() {
		p.ForEach(func(mc *transport.MuxConn) {
			_ = mc.Send(&transport.Request{Type: transport.MsgBye, Job: c.job})
		})
	}
	c.peers.Close()
}

// Servers returns the addresses the client still considers live.
func (c *Client) Servers() []string { return c.ring.Nodes() }

func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-tick.C:
			c.heartbeatAll()
			c.refreshMembership()
		}
	}
}

// refreshMembership asks one live server for the fabric's membership
// view: failed and left members are dropped from the placement ring
// proactively (not just after an I/O error), and draining members are
// remembered so new files avoid them.
func (c *Client) refreshMembership() {
	pools := c.peers.Pools()
	if len(pools) == 0 {
		return
	}
	any := pools[0]
	have := make(map[string]bool, len(pools))
	for _, p := range pools {
		have[p.Addr()] = true
	}
	resp, err := c.poolCall(context.Background(), any, &transport.Request{
		Type: transport.MsgClusterStatus, Seq: c.seq.Add(1), Job: c.job,
	})
	if err != nil {
		c.markFailed(any.Addr())
		return
	}
	for _, m := range cluster.FromRecords(resp.Members) {
		switch m.State {
		case cluster.StateFailed, cluster.StateLeft:
			c.markFailed(m.Addr)
		case cluster.StateDraining:
			c.mu.Lock()
			c.draining[m.Addr] = true
			c.mu.Unlock()
		case cluster.StateAlive:
			c.mu.Lock()
			delete(c.draining, m.Addr)
			c.mu.Unlock()
			// A member this client has never dialed is a scale-out join:
			// connect and extend the placement ring, so new files spread
			// onto the added capacity and migrated layouts that name the
			// new member stay reachable. The dial runs off this loop — a
			// member the fabric gossips alive but this client cannot
			// reach (asymmetric partition) must not stall the heartbeat
			// cadence for the healthy servers; the peer set's cooldown
			// keeps the retries bounded.
			if !have[m.Addr] {
				go func(addr string) { _, _ = c.ensurePool(addr) }(m.Addr)
			}
		}
	}
}

// ensurePool returns the live connection pool for addr, building it on
// first use — recorded stripe sets and the membership view may name
// servers this client was never configured with (members that joined
// after the client dialed in), and those extend the placement ring.
// Recently unreachable members fail fast.
func (c *Client) ensurePool(addr string) (*transport.Pool, error) {
	p, cached, err := c.peers.Get(addr)
	if err != nil {
		return nil, fmt.Errorf("client: no live connection to %s: %w", addr, err)
	}
	if !cached {
		c.ring.Add(addr)
	}
	return p, nil
}

// poolCall performs one control-path exchange on a pool: an already-open
// connection is picked (control traffic never stalls behind a lazy
// dial) and the request rides it under ctx.
func (c *Client) poolCall(ctx context.Context, p *transport.Pool, req *transport.Request) (*transport.Response, error) {
	mc, err := p.Pick()
	if err != nil {
		return nil, err
	}
	return exchange(ctx, mc, req)
}

// exchange is one call on mc. Only Data aliases a reply's leased frame
// (every other decoded field is a copy), so a reply without a payload —
// every namespace and control reply — gives its frame back here and
// stays readable; a reply with one is its caller's to Release.
func exchange(ctx context.Context, mc *transport.MuxConn, req *transport.Request) (*transport.Response, error) {
	resp, err := mc.Call(ctx, req)
	if err == nil && len(resp.Data) == 0 {
		resp.Release()
	}
	return resp, err
}

func (c *Client) heartbeatAll() {
	for _, p := range c.peers.Pools() {
		// Every open connection of the pool heartbeats: the server's job
		// monitor only needs one, but each connection's liveness is only
		// proven by traffic on that connection. The server is failed over
		// when no connection could carry the heartbeat — one bad slot
		// among healthy ones is the pool's problem (cooldown + fallback),
		// not a server failure.
		sent := 0
		p.ForEach(func(mc *transport.MuxConn) {
			if err := mc.Send(&transport.Request{
				Type: transport.MsgHeartbeat,
				Seq:  c.seq.Add(1),
				Job:  c.job,
			}); err == nil {
				sent++
			}
		})
		if sent == 0 {
			c.markFailed(p.Addr())
		}
	}
}

// markFailed drops a server the client could not reach: its whole
// connection pool closes and its ring segment reassigns to the
// survivors, mirroring the fabric's failover. Subsequent placement
// follows the shrunken ring.
func (c *Client) markFailed(addr string) {
	c.peers.Drop(addr)
	c.ring.Remove(addr)
}

// layoutOf is the stripe geometry a stat, create or unlink reply
// describes, with what a legacy entry leaves unrecorded filled in: width
// 1, the configured unit, the ring walk for the set.
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

// createSet picks the stripe servers for a new file: the ring walk,
// skipping draining members when enough non-draining servers remain.
// The chosen set is recorded in the file metadata, so every later
// reader follows it regardless of how the ring drifts afterwards.
func (c *Client) createSet(path string) []string {
	want := c.opts.Stripes
	c.mu.Lock()
	defer c.mu.Unlock()
	candidates := c.ring.LookupN(path, want+len(c.draining))
	if len(c.draining) == 0 {
		return candidates
	}
	var out []string
	for _, addr := range candidates {
		if !c.draining[addr] && len(out) < want {
			out = append(out, addr)
		}
	}
	if len(out) == 0 {
		return candidates[:min(want, len(candidates))]
	}
	return out
}

// callAddr sends one request to one server — dialing it on first use —
// failing the server over on a transport-level error. Context
// cancellation is not a server failure: the exchange is abandoned (the
// late response's frame still returns to the lease pool) and the typed
// ErrCanceled surfaces instead.
func (c *Client) callAddr(ctx context.Context, addr, path string, req *transport.Request) (*transport.Response, error) {
	p, err := c.ensurePool(addr)
	if err != nil {
		return nil, err
	}
	mc, err := p.Pick()
	if err != nil {
		c.markFailed(addr)
		return nil, err
	}
	req.Seq = c.seq.Add(1)
	req.Job = c.job
	req.Path = path
	resp, err := exchange(ctx, mc, req)
	if err != nil {
		if isCtxErr(err) {
			return nil, canceled(err)
		}
		c.markFailed(addr)
		return nil, err
	}
	return resp, nil
}

// call routes a request to the path's owner server, retrying on the
// reassigned owner when the first choice has failed, and reports which
// server answered. Application errors (ErrNotExist and friends) surface
// immediately; only transport-level failures trigger re-routing, and
// cancellation stops the retries.
func (c *Client) call(ctx context.Context, path string, req *transport.Request) (*transport.Response, string, error) {
	var lastErr error
	var addr string
	for attempt := 0; attempt < 4; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, addr, canceled(err)
		}
		var ok bool
		if addr, ok = c.ring.Lookup(path); !ok {
			return nil, "", fmt.Errorf("client: no servers left")
		}
		resp, err := c.callAddr(ctx, addr, path, req)
		if err != nil {
			if isCanceled(err) {
				return nil, addr, err
			}
			lastErr = err
			continue
		}
		if resp.Err != "" {
			return nil, addr, wireErr(resp.Error())
		}
		return resp, addr, nil
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

// fanOut sends one request per address in parallel and collects the
// responses in address order. A transport-level error on any server
// fails that server over and reports the error; an application error in
// any response is returned as-is (classified with the exported
// sentinels).
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
	for _, r := range resps {
		if r.Err != "" {
			return resps, wireErr(r.Error())
		}
	}
	return resps, nil
}

// Open opens an existing file (create=false) or creates it, returning a
// *File handle. Creation places the file on every server of its stripe
// set — recording the stripe width in the file metadata — so striped
// appends land locally and any client can later discover the layout.
// The handle follows the layout the servers recorded, not this client's
// configuration — read off the create replies, which describe the entry
// now at the path, or off a stat — so clients with different striping
// configurations interoperate.
func (c *Client) Open(path string, create bool) (*File, error) {
	return c.OpenContext(context.Background(), path, create)
}

// OpenContext is Open honoring ctx: cancellation during the create
// fan-out or the layout stat returns ErrCanceled.
func (c *Client) OpenContext(ctx context.Context, path string, create bool) (*File, error) {
	if create {
		set := c.createSet(path)
		if len(set) == 0 {
			return nil, fmt.Errorf("client: no servers left")
		}
		resps, err := c.fanOut(ctx, set, path, func(int) *transport.Request {
			return &transport.Request{
				Type:       transport.MsgCreate,
				Stripes:    len(set),
				StripeUnit: c.opts.StripeUnit,
				StripeSet:  set,
			}
		})
		if err != nil {
			return nil, err
		}
		if size, lay, ok := c.createdLayout(path, set, resps); ok {
			return c.newFile(path, size, lay), nil
		}
	}
	size, _, lay, err := c.statFull(ctx, path)
	if err != nil {
		return nil, err
	}
	return c.newFile(path, size, lay), nil
}

// newFile is a handle on path at the given size and layout.
func (c *Client) newFile(path string, size int64, lay layoutInfo) *File {
	return &File{c: c, h: &fileHandle{
		path: path, size: size,
		stripes: lay.stripes, unit: lay.unit, set: lay.set, layoutGen: lay.gen,
	}}
}

// createdLayout reads the file's size and layout off the replies of a
// create fan-out to set. ok is false when they do not describe one file
// laid out on exactly that set — it already existed under another layout,
// or a migration is rewriting it — and the caller stats instead.
func (c *Client) createdLayout(path string, set []string, resps []*transport.Response) (size int64, lay layoutInfo, ok bool) {
	sizes := make([]int64, len(resps))
	for i, r := range resps {
		l := c.layoutOf(path, r)
		if r.IsDir || l.gen == 0 || !slices.Equal(l.set, set) || i > 0 && (l.gen != lay.gen || l.unit != lay.unit) {
			return 0, lay, false
		}
		lay, sizes[i] = l, r.Size
	}
	return fsys.ConsistentTotal(sizes, lay.unit), lay, true
}

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

// pipeline is the one windowed issue/collect/cancel loop behind striped
// I/O: it starts the requests next yields (nil ends the stream) on the
// connections pick chooses, keeping as many in flight as win allows,
// and hands each successful reply to land (nil for writes, whose
// replies carry nothing). The budget is the pool's shared window, not a
// per-call constant: tokens are taken per chunk and returned per reply,
// so concurrent stripes to one server share it. An application error
// stops the stream and is returned once the in-flight replies are in; a
// transport failure additionally fails the server over; cancellation
// abandons the in-flight chunks (their frames still return to the lease
// pool) and returns promptly.
//
// The requests next yields come from transport.GetRequest and belong to
// the pipeline from then on: a chunk whose reply was collected gives its
// request, its reply and its reply channel back to their pools (land
// must not keep either message), and an abandoned chunk gives back
// nothing — the connection's reader may still deliver into its channel.
func (c *Client) pipeline(ctx context.Context, addr string, win *transport.Window,
	pick func() (*transport.MuxConn, error), next func() *transport.Request,
	land func(req *transport.Request, resp *transport.Response) error) error {
	type pending struct {
		req *transport.Request
		mc  *transport.MuxConn
		ch  chan *transport.Response
	}
	var inflight []pending
	var appErr, netErr error
	// collect consumes the oldest in-flight reply; false means ctx ended
	// first and the reply is still owed.
	collect := func() bool {
		pd := inflight[0]
		var resp *transport.Response
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
				netErr = fmt.Errorf("client: connection to %s lost", addr)
			}
			return true
		}
		transport.RecycleReplyChan(pd.ch)
		switch {
		case appErr != nil: // the stream already failed; only drain
		case resp.Err != "":
			appErr = wireErr(resp.Error())
		case land != nil:
			appErr = land(pd.req, resp)
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
			req.Seq, req.Job = c.seq.Add(1), c.job
			var ch chan *transport.Response
			if ch, err = mc.Start(req); err == nil {
				inflight = append(inflight, pending{req, mc, ch})
				continue
			}
		}
		win.Release()
		netErr = err
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
		appErr = canceled(ctx.Err())
	}
	if netErr != nil {
		c.markFailed(addr)
		return netErr
	}
	return appErr
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

// localLen returns how many bytes of a total-byte file laid round-robin
// in unit-sized chunks over nStripes servers land on stripe i. The one
// implementation lives in fsys (the migration planner trims sealed
// stripes with it too); the property test here covers that shared copy.
func localLen(total int64, i, nStripes int, unit int64) int64 {
	return fsys.LocalLen(total, i, nStripes, unit)
}

// repairWrite completes a partially-landed striped write: each stripe
// server reports its local length, and only the missing tail of its
// span is re-sent. Appends are per-server ordered, so the local length
// identifies exactly which chunks landed.
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
	for i, addr := range set {
		resp, err := c.callAddr(ctx, addr, h.path, &transport.Request{Type: transport.MsgStat})
		if err != nil {
			return fmt.Errorf("stripe %s unreachable: %w", addr, err)
		}
		if resp.Err != "" {
			return fmt.Errorf("stripe %s: %w", addr, wireErr(resp.Error()))
		}
		need := localLen(target, i, len(set), unit) - resp.Size
		if need > spanLen(spans[i]) {
			return fmt.Errorf("stripe %s has unexpected length %d", addr, resp.Size)
		}
		if need < 0 {
			if err := c.verifySpan(ctx, h, addr, i, len(set), unit, spans[i]); err != nil {
				return fmt.Errorf("stripe %s over-landed to %d: %w", addr, resp.Size, err)
			}
			continue
		}
		if need == 0 {
			continue
		}
		wresp, err := c.callAddr(ctx, addr, h.path, &transport.Request{
			Type: transport.MsgWrite, DataSegs: spanTail(spans[i], need),
			LayoutGen: h.layoutGen,
		})
		if err != nil {
			return fmt.Errorf("stripe %s unreachable: %w", addr, err)
		}
		if wresp.Err != "" {
			return fmt.Errorf("stripe %s: %w", addr, wireErr(wresp.Error()))
		}
	}
	return nil
}

// verifySpan reads back the local span this write addressed on one
// stripe server and compares it to the bytes sent — the over-landed
// repair check.
func (c *Client) verifySpan(ctx context.Context, h *fileHandle, addr string, i, nStripes int, unit int64, want [][]byte) error {
	total := spanLen(want)
	if total == 0 {
		return nil
	}
	start := localLen(h.size, i, nStripes, unit)
	resp, err := c.callAddr(ctx, addr, h.path, &transport.Request{
		Type: transport.MsgRead, Offset: start, Size: total,
	})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return wireErr(resp.Error())
	}
	defer resp.Release()
	got := resp.Data[:resp.N]
	for _, seg := range want {
		if int64(len(got)) < int64(len(seg)) || !bytes.Equal(got[:len(seg)], seg) {
			return fmt.Errorf("span content mismatch at local offset %d", start)
		}
		got = got[len(seg):]
	}
	return nil
}

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
		if isCanceled(err) {
			return 0, false, lay, false, err
		}
		var moving bool
		resp, moving = c.statAny(ctx, path, owner)
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
	// member — Unlink needs the layout to clean such files up. Members
	// this client has not dialed yet (a migrated layout naming a
	// freshly joined server) are connected on demand.
	var live []string
	for _, addr := range lay.set {
		if _, err := c.ensurePool(addr); err == nil {
			live = append(live, addr)
		}
	}
	if tolerateMissing {
		// Degraded mode (statFull's not-exist budget ran out): sum the
		// members that do hold the entry, skipping the rest — the
		// pre-rebalance partial-loss semantics.
		for _, addr := range live {
			r, err := c.callAddr(ctx, addr, path, &transport.Request{Type: transport.MsgStat})
			if err != nil || r.Err != "" {
				continue
			}
			size += r.Size
		}
		return size, false, lay, false, nil
	}
	resps, err := c.fanOut(ctx, live, path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgStat, LayoutGen: lay.gen}
	})
	if err != nil {
		transient := transport.IsStaleLayout(err) || transport.IsNotExist(err)
		return 0, false, lay, transient, err
	}
	if len(live) == len(lay.set) {
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
		size += r.Size
	}
	return size, false, lay, false, nil
}

// statAny broadcasts a stat to every connected server but asked, which
// has just answered for itself, and returns the first hit — the fallback
// path for entries the drifted ring owner no longer holds. With no hit,
// moving reports that some server answered stale-layout: the sweep is not
// atomic, so a cutover landing mid-sweep shows the new holder before its
// commit and the old one after its drop, and the miss is worth a retry
// rather than a not-exist verdict.
func (c *Client) statAny(ctx context.Context, path, asked string) (hit *transport.Response, moving bool) {
	for _, p := range c.peers.Pools() {
		if p.Addr() == asked {
			continue
		}
		resp, err := c.poolCall(ctx, p, &transport.Request{
			Type: transport.MsgStat, Seq: c.seq.Add(1), Job: c.job, Path: path,
		})
		if err != nil {
			continue
		}
		if resp.Err == "" {
			return resp, false
		}
		moving = moving || transport.IsStaleLayout(resp.Error())
	}
	return nil, moving
}

// broadcast sends the request to every server and collects responses.
// Directory metadata is replicated on all servers so that any server can
// validate parents locally, matching §4.3's "directories and files are
// stored as files" with directory content spread across servers.
func (c *Client) broadcast(ctx context.Context, path string, mk func() *transport.Request) ([]*transport.Response, error) {
	var out []*transport.Response
	for _, p := range c.peers.Pools() {
		req := mk()
		req.Seq = c.seq.Add(1)
		req.Job = c.job
		req.Path = path
		resp, err := c.poolCall(ctx, p, req)
		if err != nil {
			if isCtxErr(err) {
				return out, canceled(err)
			}
			c.markFailed(p.Addr())
			return out, err
		}
		out = append(out, resp)
	}
	return out, nil
}

// Flush asks every connected server to stage out all dirty data to its
// backing store before returning — the client-visible durability
// barrier (an application calls it after writing a checkpoint it cannot
// afford to lose). Servers without a backing store reply immediately.
func (c *Client) Flush() error {
	return c.FlushContext(context.Background())
}

// FlushContext is Flush honoring ctx.
func (c *Client) FlushContext(ctx context.Context) error {
	resps, err := c.broadcast(ctx, "/", func() *transport.Request {
		return &transport.Request{Type: transport.MsgFlush}
	})
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Err != "" {
			return wireErr(r.Error())
		}
	}
	return nil
}

// SetPolicy installs a new cluster-wide sharing policy through any
// live server — the client face of the live hot-swap. The contacted
// member validates the policy string, bumps the cluster policy epoch,
// and gossip carries the new version to every other member; each
// server recompiles at its next λ with no restart and no dropped
// request. Returns the canonical policy string and the new epoch.
func (c *Client) SetPolicy(policyStr string) (string, uint64, error) {
	var lastErr error = fmt.Errorf("client: no servers left")
	for _, p := range c.peers.Pools() {
		resp, err := c.poolCall(context.Background(), p, &transport.Request{
			Type: transport.MsgPolicySet, Seq: c.seq.Add(1), Job: c.job,
			PolicyStr: policyStr,
		})
		if err != nil {
			c.markFailed(p.Addr())
			lastErr = err
			continue
		}
		if resp.Err != "" {
			// An application error (an unparseable policy string) is the
			// same on every member; do not retry it around the ring.
			return "", 0, wireErr(resp.Error())
		}
		return resp.PolicyStr, resp.PolicyEpoch, nil
	}
	return "", 0, lastErr
}

// ShareReport is one server's per-entity fairness report: the policy
// it is enforcing (string + applied cluster policy epoch) and each
// sharing entity's compiled token share versus measured serviced-byte
// share over the server's λ-windowed horizon.
type ShareReport struct {
	Addr        string
	Policy      string
	PolicyEpoch uint64
	Shares      []transport.ShareRecord
}

// ShareReports collects every connected server's fairness report, in
// address order — the raw material of `themisctl policy status` and of
// swap-convergence checks (aggregate Bytes per entity across servers
// for the cluster-wide measured share).
func (c *Client) ShareReports() ([]ShareReport, error) {
	var out []ShareReport
	for _, p := range c.peers.Pools() {
		resp, err := c.poolCall(context.Background(), p, &transport.Request{
			Type: transport.MsgShareReport, Seq: c.seq.Add(1), Job: c.job,
		})
		if err != nil {
			c.markFailed(p.Addr())
			return out, err
		}
		if resp.Err != "" {
			return out, wireErr(resp.Error())
		}
		out = append(out, ShareReport{
			Addr: p.Addr(), Policy: resp.PolicyStr,
			PolicyEpoch: resp.PolicyEpoch, Shares: resp.Shares,
		})
	}
	return out, nil
}

// Mkdir creates a directory (replicated on every server).
func (c *Client) Mkdir(path string) error {
	return c.MkdirContext(context.Background(), path)
}

// MkdirContext is Mkdir honoring ctx.
func (c *Client) MkdirContext(ctx context.Context, path string) error {
	resps, err := c.broadcast(ctx, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgMkdir}
	})
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Err != "" {
			return wireErr(r.Error())
		}
	}
	return nil
}

// Readdir lists a directory, merging the children recorded on each
// server (a file's directory entry lives on the file's owner server).
// A server that answers not-exist contributes nothing instead of
// failing the merge: directory replication is opportunistic — a member
// that joined after the mkdir legitimately lacks the entry until
// something migrates into it. Only not-exist is tolerated (any other
// error, like not-a-directory, signals real divergence and surfaces),
// and the listing fails when every server answers not-exist (a
// genuinely missing directory).
func (c *Client) Readdir(path string) ([]string, error) {
	return c.ReaddirContext(context.Background(), path)
}

// ReaddirContext is Readdir honoring ctx.
func (c *Client) ReaddirContext(ctx context.Context, path string) ([]string, error) {
	resps, err := c.broadcast(ctx, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgReaddir}
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	var firstErr error
	ok := false
	for _, r := range resps {
		if r.Err != "" {
			if !transport.IsNotExist(r.Error()) {
				return nil, wireErr(r.Error())
			}
			if firstErr == nil {
				firstErr = wireErr(r.Error())
			}
			continue
		}
		ok = true
		for _, n := range r.Names {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	if !ok && firstErr != nil {
		return nil, firstErr
	}
	sort.Strings(names)
	return names, nil
}

// Unlink removes a file (on its stripe servers) or a directory (on all).
// Stripe servers that have failed over are skipped: their copy died with
// them, and refusing to unlink a partially-lost file would leave its
// stale layout squatting on the name forever.
func (c *Client) Unlink(path string) error {
	return c.UnlinkContext(context.Background(), path)
}

// UnlinkContext is Unlink honoring ctx. The ring owner is asked to unlink
// first and its reply describes what it removed, which names whoever else
// holds a piece: nobody for a one-stripe file, the rest of the recorded
// set for a wider one, every other server for a directory. An owner that
// answers not-exist or stale-layout (the ring drifted, or the owner was
// draining at create and never held the file) decides nothing: the entry
// is then found by stat and unlinked wherever it lives. A failure among
// the rest leaves the entry partly removed, as a failed fan-out always
// has; a second Unlink finishes it the same way, through the stat.
func (c *Client) UnlinkContext(ctx context.Context, path string) error {
	unlink := func(int) *transport.Request { return &transport.Request{Type: transport.MsgUnlink} }
	var isDir bool
	var lay layoutInfo
	resp, owner, err := c.call(ctx, path, unlink(0))
	switch {
	case err == nil:
		isDir, lay = resp.IsDir, c.layoutOf(path, resp)
	case retryableLayout(err):
		owner = ""
		if _, isDir, lay, err = c.statFull(ctx, path); err != nil {
			return err
		}
	default:
		return err
	}
	holders := lay.set
	if isDir {
		holders = nil
		for _, p := range c.peers.Pools() {
			holders = append(holders, p.Addr())
		}
	}
	var rest []string
	for _, addr := range holders {
		if addr == owner {
			continue
		}
		if _, err := c.ensurePool(addr); err == nil {
			rest = append(rest, addr)
		}
	}
	if owner == "" && len(rest) == 0 {
		return fmt.Errorf("client: no live stripe servers hold %s", path)
	}
	_, err = c.fanOut(ctx, rest, path, unlink)
	return err
}
