package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"themisio/internal/transport"
)

// TestZeroCopyHammer drives the pooled-payload path end to end with
// lease poisoning armed: several writers each stream a deterministic
// pattern through multiple Writes (the first rides the pre-capability
// fallback, the rest the pipelined positional path), then read it all
// back through the leased read replies. A tail of sub-8 KiB writes from
// one reused buffer and a head of sub-8 KiB reads cover the copied
// (group-committed) frames beside the vectored ones: the server releases
// each reply lease right after sendResponse, possibly before the flusher
// has written it. Any alias held past Release — on either side of the
// wire — corrupts a pattern byte and fails the compare; under -race the
// reuse also trips the detector.
func TestZeroCopyHammer(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	addrs := startServers(t, 4)

	const (
		writers   = 4
		perWrite  = 200 << 10 // crosses the 64 KiB units and the 8 KiB sg threshold
		numWrites = 5
		perSmall  = 3000 // below the sg threshold: copied at enqueue
		numSmall  = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				c, err := DialOpts(testJob(fmt.Sprintf("zc%d", w)), addrs, Options{
					Stripes:        4,
					StripeUnit:     64 << 10,
					ConnsPerServer: 4,
				})
				if err != nil {
					return err
				}
				defer c.Close()
				path := fmt.Sprintf("/zc/f%d", w)
				if err := c.Mkdir("/zc"); err != nil && w != 0 {
					// Racing mkdirs: only one creator wins; that's fine.
					_ = err
				}
				f, err := c.Open(path, true)
				if err != nil {
					return err
				}
				want := make([]byte, 0, perWrite*numWrites+perSmall*numSmall)
				chunk := make([]byte, perWrite)
				for i := 0; i < numWrites+numSmall; i++ {
					if i == numWrites {
						chunk = chunk[:perSmall]
					}
					// One buffer, rewritten the moment Write returns.
					for j := range chunk {
						chunk[j] = byte((len(want)+j)*31 + w)
					}
					if n, err := f.Write(chunk); err != nil || n != len(chunk) {
						return fmt.Errorf("write %d: n=%d err=%v", i, n, err)
					}
					want = append(want, chunk...)
				}
				if _, err := f.Seek(0, 0); err != nil {
					return err
				}
				// Read back in chunks misaligned with both the stripe
				// unit and the write sizes: small ones first, then large.
				got := make([]byte, 0, len(want))
				buf := make([]byte, 150<<10)
				for len(got) < len(want) {
					into := buf
					if len(got) < numSmall*perSmall {
						into = buf[:perSmall]
					}
					n, err := f.Read(into)
					if err != nil {
						return fmt.Errorf("read at %d: %v", len(got), err)
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, want) {
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("writer %d: corruption at byte %d: got %#x want %#x", w, i, got[i], want[i])
						}
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// localRanges and localSpans are the inverse of the round-robin split:
// landing every stripe's touched local range, in randomly sized chunks,
// in the spans they name must rebuild a random global window exactly,
// each byte written once.
func TestLocalSpansProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nStripes := 1 + rng.Intn(5)
		unit := int64(1 + rng.Intn(200))
		total := int64(1 + rng.Intn(5000))
		global := make([]byte, total)
		for i := range global {
			global[i] = byte(rng.Int())
		}
		// Build each stripe's local image by the forward round-robin.
		locals := make([][]byte, nStripes)
		for off := int64(0); off < total; off++ {
			gu := off / unit
			idx := int(gu % int64(nStripes))
			locals[idx] = append(locals[idx], global[off])
		}
		g0 := int64(rng.Intn(int(total)))
		g1 := g0 + 1 + int64(rng.Intn(int(total-g0)))
		got := make([]byte, g1-g0)
		for i := range got { // nothing may stay unwritten
			got[i] = ^global[g0+int64(i)]
		}
		lo, hi := localRanges(g0, g1, unit, nStripes)
		landed := int64(0)
		for idx := 0; idx < nStripes; idx++ {
			if lo[idx] < 0 {
				continue
			}
			for a := lo[idx]; a < hi[idx]; {
				n := min(int64(1+rng.Intn(300)), hi[idx]-a)
				src, sum := locals[idx][a:a+n], int64(0)
				for _, span := range localSpans(got, g0, idx, nStripes, unit, a, n) {
					src = src[copy(span, src):]
					sum += int64(len(span))
				}
				if sum != n {
					t.Fatalf("trial %d: the spans of a %d-byte chunk hold %d", trial, n, sum)
				}
				landed += n
				a += n
			}
		}
		if landed != g1-g0 || !bytes.Equal(got, global[g0:g1]) {
			t.Fatalf("trial %d (stripes=%d unit=%d total=%d window=[%d,%d)): %d bytes landed, window differs",
				trial, nStripes, unit, total, g0, g1, landed)
		}
	}
}

// spanTail slices the last need bytes out of a segment list without
// copying — the repair path's top-up source.
func TestSpanTail(t *testing.T) {
	base := []byte("abcdefghij")
	segs := [][]byte{base[0:3], base[3:4], base[4:10]} // abc | d | efghij
	for need := int64(0); need <= 10; need++ {
		tail := spanTail(segs, need)
		var flat []byte
		for _, s := range tail {
			flat = append(flat, s...)
		}
		if want := base[10-need:]; !bytes.Equal(flat, want) {
			t.Fatalf("need=%d: got %q want %q", need, flat, want)
		}
		// Zero-copy: every returned segment aliases the original base.
		for _, s := range tail {
			if len(s) > 0 && &s[0] != &base[10-len(flat):][0] && !aliases(base, s) {
				t.Fatalf("need=%d: segment does not alias the source", need)
			}
		}
	}
	if spanTail(segs, 99) == nil {
		t.Fatal("over-asking returns the whole span, not nil")
	}
}

// aliases reports whether sub's backing array lies within base's.
func aliases(base, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for i := range base {
		if &base[i] == &sub[0] {
			return true
		}
	}
	return false
}
