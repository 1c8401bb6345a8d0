package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startEcho runs a minimal accept-loop server: every accepted
// connection echoes each request's Seq back (stamping Caps like a real
// themisd response does) and counts itself.
func startEcho(t *testing.T) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = &atomic.Int64{}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(raw net.Conn) {
				conn := NewConn(raw)
				defer conn.Close()
				for {
					req, err := conn.RecvRequest()
					if err != nil {
						return
					}
					_ = conn.SendResponse(&Response{Seq: req.Seq, Caps: CapAppendAt})
				}
			}(raw)
		}
	}()
	return ln.Addr().String(), accepted
}

// waitAccepted polls the accept counter: a client-side dial returns at
// the SYN-ACK, before the server's Accept goroutine runs.
func waitAccepted(t *testing.T, accepted *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for accepted.Load() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := accepted.Load(); got != want {
		t.Fatalf("server accepted %d conns, want %d", got, want)
	}
}

func dialBinary(addr string) (*Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return NewConn(raw), nil
}

// TestPoolAffinityStability: the same key always picks the same
// connection, and distinct keys spread over distinct slots.
func TestPoolAffinityStability(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := NewPool(addr, 4, 2, dialBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	picked := map[uint64]*MuxConn{}
	for round := 0; round < 10; round++ {
		for key := uint64(0); key < 8; key++ {
			mc, err := p.SlotFor(key)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := picked[key]; ok && prev != mc {
				t.Fatalf("key %d moved between connections", key)
			}
			picked[key] = mc
		}
	}
	distinct := map[*MuxConn]bool{}
	for _, mc := range picked {
		distinct[mc] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("8 keys over a size-4 pool used %d connections, want 4", len(distinct))
	}
	// Keys size apart share a slot (the affinity function is key % size).
	if picked[0] != picked[4] || picked[1] != picked[5] {
		t.Fatal("keys equal mod size should share a connection")
	}
}

// TestPoolLazyDial: construction dials exactly slot 0; other slots dial
// on first pick only.
func TestPoolLazyDial(t *testing.T) {
	addr, accepted := startEcho(t)
	p, err := NewPool(addr, 4, 2, dialBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.OpenConns(); got != 1 {
		t.Fatalf("after NewPool: %d conns open, want 1 (slot 0 only)", got)
	}
	waitAccepted(t, accepted, 1)
	for key := uint64(0); key < 4; key++ {
		if _, err := p.SlotFor(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.OpenConns(); got != 4 {
		t.Fatalf("after picking every slot: %d conns open, want 4", got)
	}
	// Re-picking does not re-dial.
	for key := uint64(0); key < 4; key++ {
		if _, err := p.SlotFor(key); err != nil {
			t.Fatal(err)
		}
	}
	waitAccepted(t, accepted, 4)
}

// TestPoolSlotCooldown: a slot whose dial fails is not retried inside
// SlotCooldown (picks fall back to a healthy slot), so a flapping path
// cannot trigger a dial storm.
func TestPoolSlotCooldown(t *testing.T) {
	addr, _ := startEcho(t)
	var dials atomic.Int64
	dial := func(a string) (*Conn, error) {
		// First dial (slot 0, at construction) succeeds; every later
		// dial fails.
		if dials.Add(1) > 1 {
			return nil, fmt.Errorf("injected dial failure")
		}
		return dialBinary(a)
	}
	p, err := NewPool(addr, 4, 2, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	slot0, err := p.SlotFor(0)
	if err != nil {
		t.Fatal(err)
	}
	// Key 1 maps to slot 1, whose dial fails: the pick falls back to the
	// healthy slot 0 instead of failing the caller.
	mc, err := p.SlotFor(1)
	if err != nil {
		t.Fatalf("pick with failing slot did not fall back: %v", err)
	}
	if mc != slot0 {
		t.Fatal("fallback should land on the open slot-0 connection")
	}
	before := dials.Load()
	for i := 0; i < 50; i++ {
		if _, err := p.SlotFor(1); err != nil {
			t.Fatal(err)
		}
	}
	// Within the cooldown the failed slot must not be re-dialed. (The
	// fallback scan may have probed the other undialed slots once each;
	// only growth proportional to picks is a storm.)
	if after := dials.Load(); after-before > 3 {
		t.Fatalf("%d dial attempts during cooldown, want at most the one-shot probes", after-before)
	}
}

// TestPoolSizeOneEquivalence: a size-1 pool routes every pick — by
// affinity, spread, and control — through the single connection, so the
// wire sees exactly the byte stream one connection produced before
// pools existed.
func TestPoolSizeOneEquivalence(t *testing.T) {
	addr, accepted := startEcho(t)
	p, err := NewPool(addr, 1, 8, dialBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first, err := p.SlotFor(0)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 16; key++ {
		if mc, _ := p.SlotFor(key); mc != first {
			t.Fatal("SlotFor left the single slot")
		}
		if mc, _ := p.PickSpread(); mc != first {
			t.Fatal("PickSpread left the single slot")
		}
		if mc, _ := p.Pick(); mc != first {
			t.Fatal("Pick left the single slot")
		}
	}
	waitAccepted(t, accepted, 1)
}

// TestPoolWindowTokens: the write window is a pool-wide budget of
// depth×size tokens; TryAcquire fails once they are spent and Release
// frees them.
func TestPoolWindowTokens(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := NewPool(addr, 2, 3, dialBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		if !p.Writes.TryAcquire() {
			t.Fatalf("token %d refused below the budget", i)
		}
	}
	if p.Writes.TryAcquire() {
		t.Fatal("token granted past the depth×size budget")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Writes.Acquire(ctx); err == nil {
		t.Fatal("blocking acquire past the budget should honor ctx")
	}
	p.Writes.Release()
	if !p.Writes.TryAcquire() {
		t.Fatal("released token not reusable")
	}
	for i := 0; i < 6; i++ {
		p.Writes.Release()
	}
}

// TestMuxConnConcurrentCalls: many goroutines multiplex exchanges over
// one MuxConn and each gets its own matched response.
func TestMuxConnConcurrentCalls(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := NewPool(addr, 1, 8, dialBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mc, err := p.SlotFor(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			resp, err := mc.Call(context.Background(), &Request{Type: MsgHeartbeat, Seq: seq})
			if err != nil {
				t.Errorf("seq %d: %v", seq, err)
				return
			}
			if resp.Seq != seq {
				t.Errorf("seq %d got response for %d", seq, resp.Seq)
			}
			resp.Release()
		}(uint64(i))
	}
	wg.Wait()
}
