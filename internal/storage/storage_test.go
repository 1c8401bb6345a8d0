package storage

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocReleaseCoalesce(t *testing.T) {
	s := NewStore(1024)
	a, err := s.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if s.Free() != 0 {
		t.Fatalf("free = %d, want 0", s.Free())
	}
	if _, err := s.Alloc(1); err != ErrNoSpace {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Release middle then neighbours; free list must coalesce to one run.
	if err := s.Release(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(c); err != nil {
		t.Fatal(err)
	}
	fl := s.FreeExtents()
	if len(fl) != 1 || fl[0].Off != 0 || fl[0].Len != 1024 {
		t.Fatalf("free list = %+v, want one full extent", fl)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	s := NewStore(1024)
	a, _ := s.Alloc(128)
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(a); err != ErrDoubleFree {
		t.Fatalf("want ErrDoubleFree, got %v", err)
	}
	if err := s.Release(Extent{Off: -1, Len: 8}); err != ErrBadExtent {
		t.Fatalf("want ErrBadExtent, got %v", err)
	}
	if err := s.Release(Extent{Off: 1000, Len: 100}); err != ErrBadExtent {
		t.Fatalf("out-of-bounds release: %v", err)
	}
}

func TestAllocBadSize(t *testing.T) {
	s := NewStore(64)
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("alloc(0) should fail")
	}
	if _, err := s.Alloc(-5); err == nil {
		t.Fatal("alloc(-5) should fail")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewStore(4096)
	e, _ := s.Alloc(1024)
	msg := []byte("the quick brown fox")
	if _, err := s.WriteAt(e, 100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s.ReadAt(e, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	// Out-of-extent access is rejected.
	if _, err := s.WriteAt(e, 1020, msg); err != ErrBadExtent {
		t.Fatalf("overflow write: %v", err)
	}
	if _, err := s.ReadAt(e, -1, got); err != ErrBadExtent {
		t.Fatalf("negative read: %v", err)
	}
}

func TestIndexAppendResolve(t *testing.T) {
	s := NewStore(1 << 20)
	ix := NewIndex()
	e1, _ := s.Alloc(100)
	e2, _ := s.Alloc(200)
	ix.Append(e1)
	ix.Append(e2)
	if ix.Size() != 300 || ix.Runs() != 2 {
		t.Fatalf("size/runs = %d/%d", ix.Size(), ix.Runs())
	}
	// Range straddling both extents.
	sl := ix.Resolve(50, 150)
	if len(sl) != 2 {
		t.Fatalf("slices = %+v", sl)
	}
	if sl[0].Ext != e1 || sl[0].Off != 50 || sl[0].Len != 50 {
		t.Fatalf("slice0 = %+v", sl[0])
	}
	if sl[1].Ext != e2 || sl[1].Off != 0 || sl[1].Len != 100 {
		t.Fatalf("slice1 = %+v", sl[1])
	}
	// Past EOF clips; fully past EOF returns nil.
	if got := ix.Resolve(250, 100); len(got) != 1 || got[0].Len != 50 {
		t.Fatalf("clip = %+v", got)
	}
	if got := ix.Resolve(300, 1); got != nil {
		t.Fatalf("past EOF = %+v", got)
	}
	if got := ix.Resolve(-1, 10); got != nil {
		t.Fatal("negative offset should resolve to nothing")
	}
}

// Property: random alloc/release sequences never corrupt the free list:
// used+free == capacity, free list stays sorted, disjoint, coalesced.
func TestAllocatorInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(1 << 16)
		var live []Extent
		for op := 0; op < 300; op++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				e, err := s.Alloc(int64(rng.Intn(2000) + 1))
				if err == nil {
					live = append(live, e)
				}
			} else {
				i := rng.Intn(len(live))
				if s.Release(live[i]) != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			// Invariants.
			var used int64
			for _, e := range live {
				used += e.Len
			}
			if used != s.Used() {
				return false
			}
			fl := s.FreeExtents()
			var freeSum int64
			for i, e := range fl {
				freeSum += e.Len
				if i > 0 && fl[i-1].End() >= e.Off {
					return false // unsorted or uncoalesced
				}
			}
			if freeSum+used != s.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: over random alloc/release histories ReleaseAll(batch) leaves
// the free list and the used count exactly as releasing the batch one
// extent at a time does, in any order; and a batch holding a free,
// duplicated or out-of-bounds extent returns the error and changes
// nothing.
func TestReleaseAllMatchesRelease(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		all, one := NewStore(1<<16), NewStore(1<<16)
		same := func() bool {
			return all.Used() == one.Used() && slices.Equal(all.FreeExtents(), one.FreeExtents())
		}
		var live []Extent
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				n := int64(rng.Intn(2000) + 1)
				e, err := all.Alloc(n)
				if e2, err2 := one.Alloc(n); e2 != e || err2 != err {
					return false
				}
				if err == nil {
					live = append(live, e)
				}
				continue
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			batch := live[:1+rng.Intn(len(live))]
			// The batch spoiled three ways must be refused whole.
			for _, bad := range []struct {
				e    Extent
				want error
			}{
				{batch[rng.Intn(len(batch))], ErrDoubleFree},
				{Extent{Off: all.Capacity() - 1, Len: 2}, ErrBadExtent},
				{Extent{Off: -1, Len: 1}, ErrBadExtent},
			} {
				if err := all.ReleaseAll(append(slices.Clone(batch), bad.e)); err != bad.want || !same() {
					return false
				}
			}
			if fl := all.FreeExtents(); len(fl) > 0 {
				free := fl[rng.Intn(len(fl))]
				free.Len = 1 + rng.Int63n(free.Len)
				if err := all.ReleaseAll(append(slices.Clone(batch), free)); err != ErrDoubleFree || !same() {
					return false
				}
			}
			if all.ReleaseAll(batch) != nil {
				return false
			}
			for _, e := range batch {
				if one.Release(e) != nil {
					return false
				}
			}
			if !same() {
				return false
			}
			live = slices.Clone(live[len(batch):])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: data written to one extent never bleeds into another.
func TestWriteIsolationProperty(t *testing.T) {
	s := NewStore(1 << 16)
	a, _ := s.Alloc(4096)
	b, _ := s.Alloc(4096)
	f := func(off uint16, val byte) bool {
		o := int64(off) % 4096
		buf := []byte{val, val ^ 0xff}
		if o > 4094 {
			o = 4094
		}
		marker := make([]byte, 4096)
		for i := range marker {
			marker[i] = 0xAA
		}
		s.WriteAt(b, 0, marker)
		s.WriteAt(a, o, buf)
		got := make([]byte, 4096)
		s.ReadAt(b, 0, got)
		for _, g := range got {
			if g != 0xAA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
