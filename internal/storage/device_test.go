package storage

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestStoreLivesOffHeap pins the first half of the device's memory
// contract: a store's capacity does not count toward the heap the
// collector paces itself by, and the whole device, first byte to last,
// reads back what was written.
func TestStoreLivesOffHeap(t *testing.T) {
	const capacity = 64 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(capacity)
	runtime.ReadMemStats(&after)
	if mappedBytes.Load() < capacity {
		t.Skip("no anonymous mapping on this platform: the device is heap memory")
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("a %d MiB store moved HeapAlloc by %d bytes, want < 1 MiB", capacity>>20, grew)
	}
	e, err := s.Alloc(capacity)
	if err != nil {
		t.Fatal(err)
	}
	head, tail := []byte("first bytes of the device"), []byte("last bytes of the device")
	if _, err := s.WriteAt(e, 0, head); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt(e, capacity-int64(len(tail)), tail); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(head))
	if _, err := s.ReadAt(e, 0, got); err != nil || !bytes.Equal(got, head) {
		t.Errorf("head read back %q (err %v), want %q", got, err, head)
	}
	got = make([]byte, len(tail))
	if _, err := s.ReadAt(e, capacity-int64(len(tail)), got); err != nil || !bytes.Equal(got, tail) {
		t.Errorf("tail read back %q (err %v), want %q", got, err, tail)
	}
	// Never-written pages of a fresh mapping read as zero.
	mid := make([]byte, 4096)
	if _, err := s.ReadAt(e, capacity/2, mid); err != nil || !bytes.Equal(mid, make([]byte, 4096)) {
		t.Errorf("untouched device bytes are not zero (err %v)", err)
	}
}

// TestStoreUnmappedWhenUnreachable pins the second half: nothing has to
// close a store. Dropped stores are unmapped by their finalizers, so the
// process's mapped total returns to zero.
func TestStoreUnmappedWhenUnreachable(t *testing.T) {
	const capacity = 1 << 20
	buf := []byte("touched")
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 20; i++ {
			s := NewStore(capacity)
			e, err := s.Alloc(capacity)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteAt(e, int64(i)*4096, buf); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
	}
	// Finalizers run on their own goroutine, after the cycle that found
	// the store unreachable.
	deadline := time.Now().Add(10 * time.Second)
	for mappedBytes.Load() != 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := mappedBytes.Load(); n != 0 {
		t.Errorf("%d device bytes still mapped after every store was dropped", n)
	}
}
