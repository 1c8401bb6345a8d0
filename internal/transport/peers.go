package transport

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Peers is the one way a process reaches ThemisIO servers: an
// address-keyed set of lazily dialed Pools. It owns the dial, the
// closed-during-dial guard, the failed-dial cooldown and — for callers
// whose traffic is idempotent — the drop-and-redial rule of Call. The
// client, the gossip node and the migrator each hold one, built with
// the only values they differ in.
type Peers struct {
	size, depth int
	// dial opens one connection (net dial under the set's timeout; tests
	// substitute it).
	dial func(addr string) (*Conn, error)
	// cooldown is how long Get fast-fails an address after a failed dial
	// or a Drop; zero redials at once.
	cooldown time.Duration

	seq atomic.Uint64 // Call's request sequence

	mu     sync.Mutex
	pools  map[string]*Pool
	bad    map[string]time.Time // when each address last failed
	closed bool
}

// NewPeers builds an empty peer set whose pools are size connections
// wide with a per-connection pipeline depth of depth (see NewPool).
func NewPeers(size, depth int, dialTimeout, cooldown time.Duration) *Peers {
	return &Peers{
		size: size, depth: depth, cooldown: cooldown,
		dial: func(addr string) (*Conn, error) {
			raw, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return nil, err
			}
			return NewConn(raw), nil
		},
		pools: map[string]*Pool{},
		bad:   map[string]time.Time{},
	}
}

var errPeersClosed = fmt.Errorf("transport: peer set closed")

// Get returns the pool for addr, dialing it on first use; cached
// reports that the pool predates this call. An address inside its
// cooldown fails fast, so a dead member named again and again (a
// recorded stripe set, say) costs one dial timeout, not one per call.
func (ps *Peers) Get(addr string) (p *Pool, cached bool, err error) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, false, errPeersClosed
	}
	if p, ok := ps.pools[addr]; ok {
		ps.mu.Unlock()
		return p, true, nil
	}
	if t, ok := ps.bad[addr]; ok && time.Since(t) < ps.cooldown {
		ps.mu.Unlock()
		return nil, false, fmt.Errorf("transport: %s recently unreachable", addr)
	}
	ps.mu.Unlock()
	// Dial outside the lock: one slow peer must not stall calls to the
	// others.
	p, err = NewPool(addr, ps.size, ps.depth, ps.dial)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err != nil {
		ps.cool(addr)
		return nil, false, err
	}
	if ps.closed {
		// Close ran while we dialed; registering now would leak the
		// sockets past teardown.
		p.Close()
		return nil, false, errPeersClosed
	}
	if exist, ok := ps.pools[addr]; ok {
		p.Close()
		return exist, true, nil
	}
	delete(ps.bad, addr)
	ps.pools[addr] = p
	return p, false, nil
}

// cool starts addr's cooldown. Caller holds ps.mu.
func (ps *Peers) cool(addr string) {
	if ps.cooldown > 0 {
		ps.bad[addr] = time.Now()
	}
}

// Drop closes and forgets addr's pool and starts its cooldown — the
// owner's verdict that the peer is unreachable.
func (ps *Peers) Drop(addr string) {
	ps.mu.Lock()
	ps.cool(addr)
	ps.mu.Unlock()
	ps.forget(addr, nil)
}

// forget closes and unregisters addr's pool — only while it still is
// only, when given, so a late failure on a replaced pool cannot tear
// down its successor.
func (ps *Peers) forget(addr string, only *Pool) {
	ps.mu.Lock()
	p := ps.pools[addr]
	if p != nil && (only == nil || p == only) {
		delete(ps.pools, addr)
	} else {
		p = nil
	}
	ps.mu.Unlock()
	if p != nil {
		p.Close()
	}
}

// Call performs one request/response exchange with addr under ctx's
// deadline, assigning the request's Seq. A transport-level failure
// drops the peer's connections, and when they predated the call (the
// peer may simply have restarted) the request is re-sent once over a
// fresh dial — the first delivery may have executed, so only
// idempotent traffic travels this way: gossip merges, the migrate
// sub-ops (each guarded by an offset or generation check), control
// queries. A reply carrying an application error (resp.Err) is a
// protocol outcome, returned as-is with the connection left cached.
func (ps *Peers) Call(ctx context.Context, addr string, req *Request) (*Response, error) {
	for attempt := 0; ; attempt++ {
		p, cached, err := ps.Get(addr)
		if err != nil {
			return nil, err
		}
		var resp *Response
		mc, err := p.Pick()
		if err == nil {
			req.Seq = ps.seq.Add(1)
			resp, err = mc.Call(ctx, req)
		}
		if err == nil {
			return resp, nil
		}
		ps.forget(addr, p)
		if !cached || attempt > 0 || ctx.Err() != nil {
			return nil, err
		}
	}
}

// Pools snapshots the live pools in address order.
func (ps *Peers) Pools() []*Pool {
	ps.mu.Lock()
	pools := make([]*Pool, 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	sort.Slice(pools, func(i, j int) bool { return pools[i].addr < pools[j].addr })
	return pools
}

// Close tears every pool down; a dial still in flight registers
// nothing, and every later Get or Call fails.
func (ps *Peers) Close() {
	ps.mu.Lock()
	ps.closed = true
	pools := ps.pools
	ps.pools = map[string]*Pool{}
	ps.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
}
