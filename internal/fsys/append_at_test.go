package fsys

import (
	"bytes"
	"errors"
	"testing"
)

// appendAtShard builds a one-file shard for positional-append tests.
func appendAtShard(t *testing.T) *Shard {
	t.Helper()
	s := NewShard("bb0", 64<<20)
	if err := s.CreateEntry("/f", false, 1, 64<<10, []string{"bb0"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func pattern(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + i) * 31)
	}
	return b
}

// Out-of-order arrival: the later chunk parks and acks early, the gap
// filler lands both, and the bytes read back in order.
func TestAppendAtReorders(t *testing.T) {
	s := appendAtShard(t)
	if size, err := s.AppendAtGen("/f", 100, pattern(100, 100), 0); err != nil || size != 200 {
		t.Fatalf("parked chunk must ack its end offset: size=%d err=%v", size, err)
	}
	if fi, err := s.Stat("/f"); err != nil || fi.Size != 0 {
		t.Fatalf("parked chunk must not be visible: size=%d err=%v", fi.Size, err)
	}
	if size, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil || size != 200 {
		t.Fatalf("gap filler must drain the parked chunk: size=%d err=%v", size, err)
	}
	buf := make([]byte, 200)
	if n, err := s.ReadAt("/f", 0, buf); err != nil || n != 200 {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, pattern(0, 200)) {
		t.Fatal("reordered chunks landed out of order")
	}
}

// A chain of parked chunks drains in one cascade when the first gap
// closes.
func TestAppendAtDrainChain(t *testing.T) {
	s := appendAtShard(t)
	for _, off := range []int64{300, 100, 200} {
		if _, err := s.AppendAtGen("/f", off, pattern(int(off), 100), 0); err != nil {
			t.Fatalf("park off=%d: %v", off, err)
		}
	}
	if size, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil || size != 400 {
		t.Fatalf("cascade: size=%d err=%v", size, err)
	}
	buf := make([]byte, 400)
	if n, err := s.ReadAt("/f", 0, buf); err != nil || n != 400 || !bytes.Equal(buf, pattern(0, 400)) {
		t.Fatalf("cascade content: n=%d err=%v", n, err)
	}
}

// Whole-chunk duplicates (a retry of an already-landed chunk) succeed;
// a partial overlap is torn and must be rejected, not spliced.
func TestAppendAtDuplicateAndTorn(t *testing.T) {
	s := appendAtShard(t)
	if _, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil {
		t.Fatal(err)
	}
	if size, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil || size != 100 {
		t.Fatalf("duplicate retry must succeed: size=%d err=%v", size, err)
	}
	if size, err := s.AppendAtGen("/f", 40, pattern(40, 20), 0); err != nil || size != 100 {
		t.Fatalf("interior duplicate must succeed: size=%d err=%v", size, err)
	}
	if _, err := s.AppendAtGen("/f", 50, pattern(50, 100), 0); !errors.Is(err, ErrTornAppend) {
		t.Fatalf("partial overlap: %v", err)
	}
}

// The reorder buffer is bounded: parking past maxParkedBytes fails
// loudly instead of letting one slow predecessor pin unbounded memory.
func TestAppendAtParkedBudget(t *testing.T) {
	s := appendAtShard(t)
	chunk := make([]byte, 8<<20)
	var off int64 = 1 // never lands: offset 0 is missing
	for i := 0; i < 4; i++ {
		if _, err := s.AppendAtGen("/f", off, chunk, 0); err != nil {
			t.Fatalf("park %d within budget: %v", i, err)
		}
		off += int64(len(chunk))
	}
	if _, err := s.AppendAtGen("/f", off, chunk, 0); !errors.Is(err, ErrParkedFull) {
		t.Fatalf("past budget: %v", err)
	}
}

// SweepParked drops aged orphans (chunks whose writer died before the
// gap closed) and later traffic is unaffected.
func TestSweepParked(t *testing.T) {
	s := appendAtShard(t)
	if _, err := s.AppendAtGen("/f", 100, pattern(100, 50), 0); err != nil {
		t.Fatal(err)
	}
	if dropped := s.SweepParked(0); dropped != 1 {
		t.Fatalf("sweep dropped %d, want 1", dropped)
	}
	if size, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil || size != 100 {
		t.Fatalf("post-sweep append: size=%d err=%v", size, err)
	}
}

// Seal clears the reorder buffer: a parked chunk can never drain once
// the local size is frozen, and migration copies only frozen bytes.
// The stale-layout error the writer sees on retry triggers its normal
// re-send under the new layout.
func TestSealClearsParked(t *testing.T) {
	s := appendAtShard(t)
	if _, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendAtGen("/f", 200, pattern(200, 50), 0); err != nil {
		t.Fatal(err)
	}
	if size, _, err := s.Seal("/f", 0); err != nil || size != 100 {
		t.Fatalf("seal: size=%d err=%v", size, err)
	}
	if _, err := s.AppendAtGen("/f", 100, pattern(100, 100), 0); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("append to sealed entry: %v", err)
	}
	s.Unseal("/f", -1, 0)
	// The orphan is gone: closing the gap lands only the new bytes.
	if size, err := s.AppendAtGen("/f", 100, pattern(100, 100), 0); err != nil || size != 200 {
		t.Fatalf("post-unseal: size=%d err=%v", size, err)
	}
}

// Plain AppendGen and positional AppendAtGen interleave under one
// per-entry lock: a plain append that closes the gap also drains the
// reorder buffer.
func TestPlainAppendDrainsParked(t *testing.T) {
	s := appendAtShard(t)
	if _, err := s.AppendAtGen("/f", 100, pattern(100, 100), 0); err != nil {
		t.Fatal(err)
	}
	if size, err := s.AppendGen("/f", pattern(0, 100), nil, 0); err != nil || size != 200 {
		t.Fatalf("plain append must drain parked: size=%d err=%v", size, err)
	}
	buf := make([]byte, 200)
	if n, err := s.ReadAt("/f", 0, buf); err != nil || n != 200 || !bytes.Equal(buf, pattern(0, 200)) {
		t.Fatalf("content: n=%d err=%v", n, err)
	}
}

// The park path must copy: the zero-copy worker releases the request
// frame right after acking, so a parked alias would be scribbled over.
func TestParkCopiesData(t *testing.T) {
	s := appendAtShard(t)
	chunk := pattern(100, 100)
	if _, err := s.AppendAtGen("/f", 100, chunk, 0); err != nil {
		t.Fatal(err)
	}
	for i := range chunk {
		chunk[i] = 0xdb // simulate lease poison after Release
	}
	if _, err := s.AppendAtGen("/f", 0, pattern(0, 100), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	if n, err := s.ReadAt("/f", 0, buf); err != nil || n != 200 || !bytes.Equal(buf, pattern(0, 200)) {
		t.Fatalf("parked chunk aliased the caller's buffer: n=%d err=%v", n, err)
	}
}
