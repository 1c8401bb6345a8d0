// Per-server connection pools. One TCP connection per (client, server)
// serializes every stripe of a job through a single kernel socket lock;
// a small pool multiplies the paths without giving up the ordering that
// positional appends rely on. The pick discipline carries the
// correctness argument:
//
//   - SlotFor(key) is the stripe-affinity pick: a stable key (the
//     client hashes path and stripe index) always lands on the same
//     slot, so one file's chunk stream for one stripe rides one
//     connection in send order. The server's AppendAt reorder buffer
//     then never parks a copy for pool-induced reordering.
//   - PickSpread() rotates over every slot: reads at explicit offsets
//     are idempotent and order-free, so read chunks fan out across all
//     connections for parallel socket reads and parallel decode.
//   - Pick() rotates over the already-open connections only, so
//     control traffic (stats, broadcasts) never forces a lazy dial.
//
// Slot 0 is dialed when the pool is built — pool construction keeps the
// dial-error semantics a single connection had — and every other slot
// dials on first use. A slot whose dial fails (or whose connection
// dies) cools down before it is retried, and picks fall back to a
// healthy slot in the meantime; losing the whole server is the owner's
// call (Peers.Drop). Pools are normally reached through a Peers set
// (peers.go), which owns the dial and the redial-on-failure rule.
package transport

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SlotCooldown is how long a pool slot fast-fails after a failed dial
// or a died connection before it is retried.
const SlotCooldown = 3 * time.Second

// MuxConn multiplexes concurrent request/response exchanges over one
// connection: one reader goroutine, waiters keyed by Seq. It is the
// per-connection half of a Pool, split out so the stripe pipeline
// (stripe.go) can start requests without waiting.
type MuxConn struct {
	conn *Conn
	dead atomic.Bool

	mu   sync.Mutex
	wait map[uint64]waiter
	err  error

	// The fill in progress: the reader is writing the reply to fillSeq
	// into the spans its waiter registered. Forget of that exchange sets
	// abandoned and waits on fillDone until filling ends.
	filling, abandoned bool
	fillSeq            uint64
	fillDone           sync.Cond
}

// waiter is one started exchange: the channel its reply is delivered on
// and the caller memory the reply's payload lands in (Request.ReplyInto).
type waiter struct {
	ch   chan *Response
	into [][]byte
}

func newMuxConn(conn *Conn) *MuxConn {
	mc := &MuxConn{conn: conn, wait: map[uint64]waiter{}}
	mc.fillDone.L = &mc.mu
	go mc.reader()
	return mc
}

func (mc *MuxConn) reader() {
	for {
		resp := responsePool.Get().(*Response)
		if err := mc.conn.recvResponse(resp, mc); err != nil {
			mc.dead.Store(true)
			mc.mu.Lock()
			mc.err = err
			for _, w := range mc.wait {
				close(w.ch)
			}
			mc.wait = map[uint64]waiter{}
			mc.mu.Unlock()
			return
		}
		mc.mu.Lock()
		w, ok := mc.wait[resp.Seq]
		delete(mc.wait, resp.Seq)
		mc.mu.Unlock()
		if ok {
			w.ch <- resp
		} else {
			// No waiter (caller torn down mid-exchange): frame and
			// message go straight back to their pools.
			resp.Recycle()
		}
	}
}

// claim is the reader's half of placement (replyDst): the spans the
// exchange seq registered, held for the fill, when they sum to n.
func (mc *MuxConn) claim(seq uint64, n int) [][]byte {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	w, ok := mc.wait[seq]
	if !ok {
		return nil
	}
	for _, s := range w.into {
		n -= len(s)
	}
	if n != 0 { // n > 0 on entry: no spans never match
		return nil
	}
	mc.filling, mc.fillSeq = true, seq
	return w.into
}

// filled ends the fill claim began. An abandoned fill was cut short by
// Forget's read deadline, which is lifted here: unless the read failed
// otherwise, it reports errAbandoned and the reader goes on to read the
// rest of the frame into nothing.
func (mc *MuxConn) filled(err error) error {
	mc.mu.Lock()
	abandoned := mc.abandoned
	mc.filling, mc.abandoned = false, false
	mc.fillDone.Broadcast()
	mc.mu.Unlock()
	if !abandoned {
		return err
	}
	_ = mc.conn.raw.SetReadDeadline(time.Time{})
	if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return errAbandoned
}

// Start registers req's response channel, and the memory its reply's
// payload lands in (req.ReplyInto), and puts the request on the wire
// without waiting — the building block of pipelined stripe I/O. The
// caller must receive exactly once from the returned channel; a closed
// channel means the connection died. A caller that did receive its reply
// may hand the channel to RecycleReplyChan.
func (mc *MuxConn) Start(req *Request) (chan *Response, error) {
	ch := replyChanPool.Get().(chan *Response)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.wait[req.Seq] = waiter{ch, req.ReplyInto}
	mc.mu.Unlock()
	if err := mc.conn.SendRequest(req); err != nil {
		mc.mu.Lock()
		delete(mc.wait, req.Seq)
		mc.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// RecycleReplyChan returns a Start channel whose single reply was
// received: the reader deregistered it before the send, so the receiver
// holds the only reference and the channel is empty. A channel that was
// closed (the connection died) or passed to Forget (the reader may still
// be about to send into it) must never come here.
func RecycleReplyChan(ch chan *Response) { replyChanPool.Put(ch) }

// aLongTimeAgo is the read deadline that cuts a stalled fill short.
var aLongTimeAgo = time.Unix(1, 0)

// Forget abandons a started exchange (context cancellation): the waiter
// is deregistered so the reader releases the late response's frame, and
// anything already delivered into the buffered channel is released
// here. The channel is not reused. When Forget returns the reader writes
// nothing more into the exchange's ReplyInto spans: a reply landing in
// them is cut short with a past read deadline — a stalled peer cannot
// hold Forget up — and the reader reads the rest of its frame into
// nothing, so the connection stays usable. A connection that cannot take
// a deadline is closed instead.
func (mc *MuxConn) Forget(seq uint64, ch chan *Response) {
	mc.mu.Lock()
	delete(mc.wait, seq)
	if mc.filling && mc.fillSeq == seq {
		mc.abandoned = true
		if mc.conn.raw.SetReadDeadline(aLongTimeAgo) != nil {
			mc.conn.raw.Close()
		}
		for mc.filling {
			mc.fillDone.Wait()
		}
	}
	mc.mu.Unlock()
	select {
	case resp, ok := <-ch:
		if ok && resp != nil {
			resp.Release()
		}
	default:
	}
}

// Call performs one request/response exchange, honoring ctx: on
// cancellation the waiter is abandoned (the late response's frame still
// returns to the lease pool) and ctx.Err() is returned.
func (mc *MuxConn) Call(ctx context.Context, req *Request) (*Response, error) {
	ch, err := mc.Start(req)
	if err != nil {
		return nil, err
	}
	var resp *Response
	var ok bool
	if ctx == nil || ctx.Done() == nil {
		resp, ok = <-ch
	} else {
		select {
		case resp, ok = <-ch:
		case <-ctx.Done():
			mc.Forget(req.Seq, ch)
			return nil, ctx.Err()
		}
	}
	if !ok {
		return nil, fmt.Errorf("transport: connection lost")
	}
	RecycleReplyChan(ch)
	return resp, nil
}

// Send fires a request without expecting to wait on its response
// (heartbeats, goodbyes); any response that does come back is consumed
// by the reader.
func (mc *MuxConn) Send(req *Request) error { return mc.conn.SendRequest(req) }

// Dead reports whether the connection's reader has exited.
func (mc *MuxConn) Dead() bool { return mc.dead.Load() }

// Close closes the underlying connection; the reader exits and fails
// every waiter.
func (mc *MuxConn) Close() { mc.conn.Close() }

// poolSlot is one lazily dialed connection of a Pool. The slot mutex
// serializes dialing of this slot only; picks on other slots proceed.
type poolSlot struct {
	mu       sync.Mutex
	mc       atomic.Pointer[MuxConn]
	badUntil atomic.Int64 // unixnano; cooldown after a failed dial or death
}

// Pool is a fixed-width set of connections to one server.
type Pool struct {
	addr string
	size int
	dial func(addr string) (*Conn, error)

	slots  []poolSlot
	closed atomic.Bool

	rr atomic.Uint64 // spread-pick cursor

	// Writes and Reads are the in-flight chunk budgets: the pipeline
	// depth is a property of the pool, not of one connection — depth×size
	// tokens each, shared by every concurrent striped call to this
	// server, so a size-1 pool budgets exactly what one connection used
	// to, and a wider pool scales the budget with its paths.
	Writes, Reads Window

	inflight atomic.Int64 // acquired window tokens (both kinds)
}

// Window is a counting budget of in-flight requests.
type Window struct {
	tok      chan struct{}
	inflight *atomic.Int64 // the owning pool's gauge
}

// Acquire takes one token, honoring ctx.
func (w *Window) Acquire(ctx context.Context) error {
	select {
	case w.tok <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	w.inflight.Add(1)
	return nil
}

// TryAcquire takes a token only if one is free — the non-blocking pick
// for callers that still hold collectable in-flight responses of their
// own (blocking then could deadlock on a token the caller itself must
// release).
func (w *Window) TryAcquire() bool {
	select {
	case w.tok <- struct{}{}:
		w.inflight.Add(1)
		return true
	default:
		return false
	}
}

// Release returns a token.
func (w *Window) Release() {
	w.inflight.Add(-1)
	<-w.tok
}

// NewPool builds a pool of size connections to addr with a per-conn
// pipeline depth of depth (the write and read window budgets are each
// depth×size). Slot 0 is dialed immediately — a pool to an unreachable
// server fails here, like a single dial used to — and the remaining
// slots dial on first use.
func NewPool(addr string, size, depth int, dial func(addr string) (*Conn, error)) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pool{
		addr:  addr,
		size:  size,
		dial:  dial,
		slots: make([]poolSlot, size),
	}
	p.Writes = Window{tok: make(chan struct{}, size*depth), inflight: &p.inflight}
	p.Reads = Window{tok: make(chan struct{}, size*depth), inflight: &p.inflight}
	if _, err := p.ensureSlot(0); err != nil {
		return nil, err
	}
	registerPool(p)
	return p, nil
}

// Addr returns the server address the pool connects to.
func (p *Pool) Addr() string { return p.addr }

// Size returns the pool's configured width.
func (p *Pool) Size() int { return p.size }

var errPoolClosed = fmt.Errorf("transport: pool closed")

// ensureSlot returns slot i's live connection, dialing it on first use.
// A slot in cooldown (recent failed dial, or a connection that died)
// fails fast so the caller can fall back to a healthy slot.
func (p *Pool) ensureSlot(i int) (*MuxConn, error) {
	s := &p.slots[i]
	if mc := s.mc.Load(); mc != nil && !mc.Dead() {
		return mc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.closed.Load() {
		return nil, errPoolClosed
	}
	if mc := s.mc.Load(); mc != nil {
		if !mc.Dead() {
			return mc, nil
		}
		// The connection died under us: evict it and cool the slot down
		// so one flapping path cannot trigger a dial storm.
		mc.Close()
		s.mc.Store(nil)
		s.badUntil.Store(time.Now().Add(SlotCooldown).UnixNano())
	}
	if time.Now().UnixNano() < s.badUntil.Load() {
		return nil, fmt.Errorf("transport: pool slot %d of %s cooling down", i, p.addr)
	}
	poolDialing.Add(1)
	conn, err := p.dial(p.addr)
	poolDialing.Add(-1)
	if err != nil {
		s.badUntil.Store(time.Now().Add(SlotCooldown).UnixNano())
		return nil, err
	}
	mc := newMuxConn(conn)
	if p.closed.Load() {
		// Close ran while we dialed; registering now would leak the
		// socket past teardown.
		mc.Close()
		return nil, errPoolClosed
	}
	s.mc.Store(mc)
	return mc, nil
}

// SlotFor is the stripe-affinity pick: key maps deterministically to a
// slot, so the same (path, stripe) always rides the same connection and
// per-stripe append order is preserved end to end. When the affinity
// slot is unhealthy the pick degrades to the nearest healthy slot —
// order degrades to the server's reorder buffer rather than the whole
// write failing — and only when no slot can be had does the pool report
// the last error for the owner to fail the server over.
func (p *Pool) SlotFor(key uint64) (*MuxConn, error) {
	i := int(key % uint64(p.size))
	countPick(i)
	mc, err := p.ensureSlot(i)
	if err == nil {
		return mc, nil
	}
	return p.fallback(i, err)
}

// PickSpread rotates over every slot, dialing lazily — the read path's
// pick, spreading idempotent chunk RPCs across all connections.
func (p *Pool) PickSpread() (*MuxConn, error) {
	i := int(p.rr.Add(1) % uint64(p.size))
	countPick(i)
	mc, err := p.ensureSlot(i)
	if err == nil {
		return mc, nil
	}
	return p.fallback(i, err)
}

// Pick rotates over the already-open connections only — the control
// path's pick, which must never stall a stat behind a lazy dial. With
// nothing open yet it dials slot 0 (the primed slot, so this only
// happens after a death).
func (p *Pool) Pick() (*MuxConn, error) {
	n := int(p.rr.Add(1))
	for k := 0; k < p.size; k++ {
		i := (n + k) % p.size
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			countPick(i)
			return mc, nil
		}
	}
	countPick(0)
	return p.ensureSlot(0)
}

// fallback scans for any healthy slot after pick i failed, preferring
// already-open connections, then undialed slots.
func (p *Pool) fallback(i int, lastErr error) (*MuxConn, error) {
	for k := 1; k < p.size; k++ {
		j := (i + k) % p.size
		if mc := p.slots[j].mc.Load(); mc != nil && !mc.Dead() {
			return mc, nil
		}
	}
	for k := 1; k < p.size; k++ {
		j := (i + k) % p.size
		if mc, err := p.ensureSlot(j); err == nil {
			return mc, nil
		}
	}
	return nil, lastErr
}

// ForEach calls f with every currently open connection (heartbeats,
// goodbyes). Lazily undialed slots are skipped.
func (p *Pool) ForEach(f func(*MuxConn)) {
	for i := range p.slots {
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			f(mc)
		}
	}
}

// OpenConns reports how many connections the pool currently holds open
// — the lazy-dial observable.
func (p *Pool) OpenConns() int {
	n := 0
	for i := range p.slots {
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			n++
		}
	}
	return n
}

// Close tears the pool down: every open connection closes and no new
// dial will register.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	unregisterPool(p)
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if mc := s.mc.Load(); mc != nil {
			mc.Close()
			s.mc.Store(nil)
		}
		s.mu.Unlock()
	}
}

// --- process-wide pool accounting (themis_transport_pool_*) -----------

// poolPickSlots bounds the picks-by-slot vector; wider pools fold their
// tail into the last bucket.
const poolPickSlots = 16

var (
	poolDialing atomic.Int64
	poolPicks   [poolPickSlots]atomic.Int64

	poolRegMu sync.Mutex
	poolReg   = map[*Pool]struct{}{}
)

func countPick(slot int) {
	if slot >= poolPickSlots {
		slot = poolPickSlots - 1
	}
	poolPicks[slot].Add(1)
}

func registerPool(p *Pool) {
	poolRegMu.Lock()
	poolReg[p] = struct{}{}
	poolRegMu.Unlock()
}

func unregisterPool(p *Pool) {
	poolRegMu.Lock()
	delete(poolReg, p)
	poolRegMu.Unlock()
}

// ConnPoolStats reports the process-wide pool state: connections open
// across every live pool, dials in progress, and slots sitting in
// cooldown. Computed at scrape time — the request path pays nothing.
func ConnPoolStats() (open, dialing, cooldown int64) {
	now := time.Now().UnixNano()
	poolRegMu.Lock()
	defer poolRegMu.Unlock()
	for p := range poolReg {
		for i := range p.slots {
			if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
				open++
			} else if p.slots[i].badUntil.Load() > now {
				cooldown++
			}
		}
	}
	return open, dialing + poolDialing.Load(), cooldown
}

// PoolPicks emits the process-wide pick count per slot index (slot
// poolPickSlots-1 aggregates everything at or past it).
func PoolPicks(emit func(slot int, picks int64)) {
	for i := range poolPicks {
		if n := poolPicks[i].Load(); n > 0 {
			emit(i, n)
		}
	}
}

// PoolsSnapshot emits one row per live pool: its server address, open
// connection count and in-flight window tokens — the per-server
// in-flight gauge.
func PoolsSnapshot(emit func(addr string, open, inflight int64)) {
	poolRegMu.Lock()
	pools := make([]*Pool, 0, len(poolReg))
	for p := range poolReg {
		pools = append(pools, p)
	}
	poolRegMu.Unlock()
	for _, p := range pools {
		emit(p.addr, int64(p.OpenConns()), p.inflight.Load())
	}
}
