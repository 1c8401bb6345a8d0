package client

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"themisio/internal/transport"
)

// fakeStripe is one stripe server's view of one file, behind a scripted
// chunkServer: it lands writes, reports its length, reads its bytes back,
// and misbehaves as told.
type fakeStripe struct {
	mu   sync.Mutex
	data []byte
	// refuseAfter is how many more writes land before every later one is
	// refused, until the next stat re-arms the stripe (the client stats
	// only to repair); negative never refuses.
	refuseAfter int
	// surplus is what another writer appends before the first stat.
	surplus []byte
	// flip corrupts the byte at this offset on read-back (zero: none).
	flip int64
	// stale answers every stat with the stale-layout refusal.
	stale bool

	writes []transport.Request // every write seen, in arrival order, Data dropped
}

func (f *fakeStripe) script(req *transport.Request) *transport.Response {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Type {
	case transport.MsgStat:
		if f.stale {
			return &transport.Response{Err: transport.ErrStaleLayout}
		}
		f.refuseAfter = -1
		f.data, f.surplus = append(f.data, f.surplus...), nil
		return &transport.Response{Size: int64(len(f.data)), LayoutGen: req.LayoutGen}
	case transport.MsgWrite:
		rec := *req
		rec.Data = nil
		rec.Size = int64(len(req.Data))
		f.writes = append(f.writes, rec)
		if f.refuseAfter == 0 || !req.AppendAt || req.AppendOff != int64(len(f.data)) {
			return &transport.Response{Err: "write: injected device error"}
		}
		f.refuseAfter--
		f.data = append(f.data, req.Data...)
		return &transport.Response{N: rec.Size}
	case transport.MsgRead:
		out := bytes.Clone(f.data[req.Offset : req.Offset+req.Size])
		if f.flip > 0 && f.flip >= req.Offset && f.flip < req.Offset+req.Size {
			out[f.flip-req.Offset] ^= 0xff
		}
		return &transport.Response{N: req.Size, Data: out}
	}
	return nil
}

// Write-repair against two scripted stripe servers: a two-stripe file
// with a chunk-sized unit, one 4 MiB write — four chunks per stripe.
func TestWriteRepair(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	const unit, perStripe = chunkBytes, 4
	payload := make([]byte, 2*perStripe*unit)
	for i := range payload {
		payload[i] = patternByte(int64(i))
	}
	// stripeBytes is what stripe i of the finished file holds.
	stripeBytes := func(i int) []byte {
		var out []byte
		for u := i; u < 2*perStripe; u += 2 {
			out = append(out, payload[u*unit:(u+1)*unit]...)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		stripe [2]*fakeStripe
		check  func(t *testing.T, err error, h *fileHandle, s [2]*fakeStripe)
	}{
		{
			// Stripe 1 lands two of its four chunks and refuses the rest:
			// repair sends exactly the other two, as positional appends from
			// the length the server reported.
			name:   "tops up the missing tail",
			stripe: [2]*fakeStripe{{refuseAfter: -1}, {refuseAfter: 2}},
			check: func(t *testing.T, err error, h *fileHandle, s [2]*fakeStripe) {
				if err != nil {
					t.Fatalf("write: %v", err)
				}
				if h.size != int64(len(payload)) || h.off != h.size || h.damaged {
					t.Fatalf("handle after repair: size %d off %d damaged %v, want %d", h.size, h.off, h.damaged, len(payload))
				}
				for i := range s {
					if !bytes.Equal(s[i].data, stripeBytes(i)) {
						t.Fatalf("stripe %d holds the wrong bytes after repair", i)
					}
				}
				if n := len(s[0].writes); n != perStripe {
					t.Fatalf("stripe 0 saw %d writes, want %d: it needed no repair", n, perStripe)
				}
				topUp := s[1].writes[perStripe:]
				if len(topUp) != 2 {
					t.Fatalf("repair sent %d writes to stripe 1, want the 2 missing chunks", len(topUp))
				}
				for i, w := range topUp {
					if want := int64((2 + i) * unit); !w.AppendAt || w.AppendOff != want || w.Size != unit {
						t.Fatalf("top-up %d: AppendAt %v, %d bytes at %d; want a positional append of %d at %d",
							i, w.AppendAt, w.Size, w.AppendOff, unit, want)
					}
				}
			},
		},
		{
			// Stripe 0 refuses its last chunk, which sends the write through
			// repair; stripe 1 has grown past its target, by bytes behind this
			// write's span. The span reads back identical: accepted.
			name:   "accepts an over-landed stripe with identical bytes",
			stripe: [2]*fakeStripe{{refuseAfter: 3}, {refuseAfter: -1, surplus: []byte("another writer")}},
			check: func(t *testing.T, err error, h *fileHandle, s [2]*fakeStripe) {
				if err != nil || h.damaged || h.size != int64(len(payload)) {
					t.Fatalf("write: %v (size %d, damaged %v), want the surplus tolerated", err, h.size, h.damaged)
				}
				if !bytes.Equal(s[0].data, stripeBytes(0)) {
					t.Fatal("stripe 0 holds the wrong bytes after repair")
				}
			},
		},
		{
			name:   "refuses an over-landed stripe with different bytes",
			stripe: [2]*fakeStripe{{refuseAfter: 3}, {refuseAfter: -1, surplus: []byte("another writer"), flip: unit + 7}},
			check: func(t *testing.T, err error, h *fileHandle, s [2]*fakeStripe) {
				if err == nil || !h.damaged || h.size != 0 {
					t.Fatalf("write: %v (size %d, damaged %v), want a refusal and a poisoned handle", err, h.size, h.damaged)
				}
				if retryableLayout(err) {
					t.Fatalf("a content mismatch must not read as a layout transient: %v", err)
				}
			},
		},
		{
			// The file was rebalanced between the failed write and its
			// repair: the lengths are asked under the handle's generation and
			// refused, and the write surfaces as retryable — re-stat, not
			// poison.
			name:   "surfaces a stale layout as retryable",
			stripe: [2]*fakeStripe{{refuseAfter: 3, stale: true}, {refuseAfter: -1, stale: true}},
			check: func(t *testing.T, err error, h *fileHandle, s [2]*fakeStripe) {
				if !errors.Is(err, ErrStaleLayout) || !retryableLayout(err) || h.damaged || h.size != 0 {
					t.Fatalf("write: %v (size %d, damaged %v), want ErrStaleLayout on a clean handle", err, h.size, h.damaged)
				}
				if n := len(s[0].writes) + len(s[1].writes); n != 2*perStripe {
					t.Fatalf("%d writes in all, want %d: nothing is topped up across layouts", n, 2*perStripe)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.stripe
			set := []string{startScriptedServer(t, s[0].script).addr, startScriptedServer(t, s[1].script).addr}
			c, err := DialOpts(testJob("repair"), set, Options{ConnsPerServer: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			h := &fileHandle{path: "/f", stripes: 2, unit: unit, set: set, layoutGen: 7}
			err = c.writeOnce(context.Background(), h, payload)
			for i := range s {
				s[i].mu.Lock()
				defer s[i].mu.Unlock()
			}
			tc.check(t, err, h, s)
		})
	}
}
