package client

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"testing"

	"themisio/internal/transport"
)

// A server a file migrated away from answers a stat with stale-layout
// naming the layout the file went to, and the client goes there — to a
// member it has never heard of, in the same attempt. Each operation runs
// on a fresh client dialed with the old holder alone, so its ring knows
// nothing else: open, read, stat and unlink each succeed with one stat of
// the old holder and one generation-checked stat of the new one. A chain
// of moves (A→B→C) is followed one hop per attempt.
func TestStaleLayoutForward(t *testing.T) {
	const path, size = "/moved", 10_000
	want := make([]byte, size)
	for i := range want {
		want[i] = patternByte(int64(i))
	}
	// start scripts a server holding the file at layout generation gen
	// (to empty), or one the file left for to at gen: there every stat
	// answers stale-layout naming to, and every other file operation
	// stale-layout alone. A holder refuses a stat checked against another
	// generation, answers reads with patterned bytes, and unlinks.
	start := func(to string, gen uint64) *fakeHolder {
		h := &fakeHolder{}
		addr := startScriptedServer(t, func(req *transport.Request) *transport.Response {
			h.mu.Lock()
			defer h.mu.Unlock()
			lay := transport.Response{Size: size, Stripes: 1, StripeUnit: DefaultStripeUnit, StripeSet: []string{h.addr}, LayoutGen: gen}
			switch req.Type {
			case transport.MsgStat:
				h.stats = append(h.stats, req.LayoutGen)
				switch {
				case to != "":
					lay.Err, lay.Size, lay.StripeSet = transport.ErrStaleLayout, 0, []string{to}
				case req.LayoutGen != 0 && req.LayoutGen != gen:
					return &transport.Response{Err: transport.ErrStaleLayout}
				}
				return &lay
			case transport.MsgUnlink, transport.MsgRead:
				if to != "" {
					return &transport.Response{Err: transport.ErrStaleLayout}
				}
				if req.Type == transport.MsgUnlink {
					h.unlinks++
					return &lay
				}
				data := make([]byte, req.Size)
				for i := range data {
					data[i] = patternByte(req.Offset + int64(i))
				}
				return &transport.Response{N: req.Size, Data: data}
			}
			return nil
		}).addr
		h.mu.Lock()
		h.addr = addr
		h.mu.Unlock()
		return h
	}
	dial := func(addr string) *Client {
		t.Helper()
		c, err := DialOpts(testJob("fwd"), []string{addr}, Options{ConnsPerServer: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	// seen checks the stats each server saw since the last check, by the
	// layout generation they were checked against.
	seen := func(op string, want map[*fakeHolder][]uint64) {
		t.Helper()
		for h, gens := range want {
			if got := h.take(); !slices.Equal(got, gens) {
				t.Fatalf("%s: %s saw stats at generations %v, want %v", op, h.addr, got, gens)
			}
		}
	}

	t.Run("one hop", func(t *testing.T) {
		c := start("", 2)
		a := start(c.addr, 2)
		f, err := dial(a.addr).Open(path, false)
		if err != nil {
			t.Fatalf("open of a moved file: %v", err)
		}
		seen("open", map[*fakeHolder][]uint64{a: {0}, c: {2}})
		if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read of a moved file: %d bytes, %v", len(got), err)
		}
		seen("read", map[*fakeHolder][]uint64{a: nil, c: nil})

		if n, isDir, err := dial(a.addr).Stat(path); err != nil || isDir || n != size {
			t.Fatalf("Stat of a moved file = %d, %v, %v; want %d", n, isDir, err, size)
		}
		seen("stat", map[*fakeHolder][]uint64{a: {0}, c: {2}})

		if err := dial(a.addr).Unlink(path); err != nil {
			t.Fatalf("Unlink of a moved file: %v", err)
		}
		seen("unlink", map[*fakeHolder][]uint64{a: {0}, c: {2}})
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.unlinks != 1 {
			t.Fatalf("the new holder saw %d unlinks, want 1", c.unlinks)
		}
	})

	t.Run("two hops", func(t *testing.T) {
		c := start("", 3)
		b := start(c.addr, 3)
		a := start(b.addr, 2)
		f, err := dial(a.addr).Open(path, false)
		if err != nil {
			t.Fatalf("open of a file moved twice: %v", err)
		}
		seen("open", map[*fakeHolder][]uint64{a: {0}, b: {2}, c: {3}})
		if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read of a file moved twice: %d bytes, %v", len(got), err)
		}
	})
}

// fakeHolder is a scripted server's record of the requests it saw.
type fakeHolder struct {
	addr    string
	mu      sync.Mutex
	stats   []uint64 // the LayoutGen of each stat request
	unlinks int
}

// take returns and forgets the stats seen so far.
func (h *fakeHolder) take() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	h.stats = nil
	return s
}
