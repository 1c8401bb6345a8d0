// Package storage implements the byte-addressable storage device under
// each ThemisIO server (§4.3). The paper uses Intel Optane persistent
// memory (and RAM in the evaluation: "ThemisIO runs on the CLX nodes with
// RAM as storage devices"); this implementation is a RAM slab with an
// extent allocator and a per-file extent index, which exercises the same
// allocate/index/read/write code paths.
//
// Concurrency contract mirrors §4.3: concurrent reads need no locking;
// concurrent writes to non-conflicting byte ranges proceed without
// limitation; only allocator metadata updates take a lock.
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by the store.
var (
	ErrNoSpace    = errors.New("storage: out of space")
	ErrBadExtent  = errors.New("storage: extent out of bounds")
	ErrDoubleFree = errors.New("storage: extent not allocated")
)

// Extent is a contiguous region of the device.
type Extent struct {
	Off int64
	Len int64
}

// End returns the first byte past the extent.
func (e Extent) End() int64 { return e.Off + e.Len }

// Store is a byte-addressable device: a slab plus a first-fit extent
// allocator with free-list coalescing.
type Store struct {
	mu   sync.Mutex
	data []byte
	free []Extent // sorted by Off, coalesced
	used int64
}

// mappedBytes is the device memory this process currently holds mapped:
// NewStore adds a mapping's size and the finalizer that unmaps it takes
// the size off again.
var mappedBytes atomic.Int64

// NewStore returns a store with the given capacity in bytes. The device
// is unmapped when the store becomes unreachable; there is no Close for
// a caller to invoke too early (tests and tools read a shard after its
// server has stopped).
func NewStore(capacity int64) *Store {
	data, mapped := mapDevice(capacity)
	s := &Store{data: data, free: []Extent{{Off: 0, Len: capacity}}}
	if mapped {
		mappedBytes.Add(capacity)
		runtime.SetFinalizer(s, func(s *Store) {
			unmapDevice(s.data)
			mappedBytes.Add(-capacity)
		})
	}
	return s
}

// Capacity returns the device size in bytes.
func (s *Store) Capacity() int64 { return int64(len(s.data)) }

// Used returns the number of allocated bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Free returns the number of unallocated bytes.
func (s *Store) Free() int64 { return s.Capacity() - s.Used() }

// Alloc reserves n bytes, first-fit. It returns ErrNoSpace if no single
// free extent is large enough (the store does not split allocations).
func (s *Store) Alloc(n int64) (Extent, error) {
	if n <= 0 {
		return Extent{}, fmt.Errorf("storage: alloc of %d bytes", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range s.free {
		if f.Len < n {
			continue
		}
		e := Extent{Off: f.Off, Len: n}
		if f.Len == n {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = Extent{Off: f.Off + n, Len: f.Len - n}
		}
		s.used += n
		return e, nil
	}
	return Extent{}, ErrNoSpace
}

// Release returns an extent to the free list, coalescing neighbours.
// Releasing a region that overlaps the free list is ErrDoubleFree.
func (s *Store) Release(e Extent) error {
	if e.Len <= 0 || e.Off < 0 || e.End() > s.Capacity() {
		return ErrBadExtent
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].Off >= e.Off })
	if i < len(s.free) && e.End() > s.free[i].Off {
		return ErrDoubleFree
	}
	if i > 0 && s.free[i-1].End() > e.Off {
		return ErrDoubleFree
	}
	s.free = append(s.free, Extent{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = e
	// Coalesce with successor, then predecessor.
	if i+1 < len(s.free) && s.free[i].End() == s.free[i+1].Off {
		s.free[i].Len += s.free[i+1].Len
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].End() == s.free[i].Off {
		s.free[i-1].Len += s.free[i].Len
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
	s.used -= e.Len
	return nil
}

// ReleaseAll returns a batch of extents to the free list under one lock
// and in one merge pass: a file's extents interleave with other files',
// so releasing them one at a time shifts the list once per extent. The
// batch is validated whole before anything changes — an extent out of
// bounds is ErrBadExtent, one overlapping the free list or another extent
// of the batch is ErrDoubleFree — so an error leaves the store untouched.
func (s *Store) ReleaseAll(batch []Extent) error {
	if len(batch) == 0 {
		return nil
	}
	es := slices.Clone(batch)
	slices.SortFunc(es, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
	for i, e := range es {
		if e.Len <= 0 || e.Off < 0 || e.End() > s.Capacity() {
			return ErrBadExtent
		}
		if i > 0 && es[i-1].End() > e.Off {
			return ErrDoubleFree
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := make([]Extent, 0, len(s.free)+len(es))
	var freed int64
	for i, j := 0, 0; i < len(s.free) || j < len(es); {
		var e Extent
		if j == len(es) || (i < len(s.free) && s.free[i].Off < es[j].Off) {
			e = s.free[i]
			i++
		} else {
			e = es[j]
			j++
			freed += e.Len
		}
		if k := len(merged) - 1; k >= 0 && merged[k].End() >= e.Off {
			// Each input is disjoint within itself, so an overlap here is
			// a batch extent against a free one.
			if merged[k].End() > e.Off {
				return ErrDoubleFree
			}
			merged[k].Len += e.Len
			continue
		}
		merged = append(merged, e)
	}
	s.free = merged
	s.used -= freed
	return nil
}

// WriteAt copies p into the extent at offset off within the extent.
// The caller guarantees the extent was allocated; disjoint-range writers
// need no further synchronization (§4.3).
func (s *Store) WriteAt(e Extent, off int64, p []byte) (int, error) {
	if off < 0 || off+int64(len(p)) > e.Len {
		return 0, ErrBadExtent
	}
	n := copy(s.data[e.Off+off:e.Off+off+int64(len(p))], p)
	runtime.KeepAlive(s) // the finalizer unmaps data
	return n, nil
}

// View returns the device bytes of the allocated extent e, for a caller
// that fills them in place (a payload read straight off a socket) instead
// of handing WriteAt a copy. The view is valid while the extent stays
// allocated and the store reachable: the finalizer unmaps the device.
func (s *Store) View(e Extent) []byte {
	return s.data[e.Off:e.End():e.End()]
}

// ReadAt copies from the extent at offset off within the extent into p.
func (s *Store) ReadAt(e Extent, off int64, p []byte) (int, error) {
	if off < 0 || off+int64(len(p)) > e.Len {
		return 0, ErrBadExtent
	}
	n := copy(p, s.data[e.Off+off:e.Off+off+int64(len(p))])
	runtime.KeepAlive(s) // the finalizer unmaps data
	return n, nil
}

// FreeExtents returns a copy of the free list (for tests and fsck-style
// validation).
func (s *Store) FreeExtents() []Extent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Extent(nil), s.free...)
}

// mapping is one contiguous run of a file: file bytes
// [FileOff, FileOff+Ext.Len) live at device extent Ext.
type mapping struct {
	FileOff int64
	Ext     Extent
}

// Index maps file offsets to device extents for one file replica on one
// server ("an index specifies the NVMe region of the file's contents",
// §4.3). Appends extend the index; overwrites reuse existing mappings.
type Index struct {
	mu   sync.RWMutex
	runs []mapping // sorted by FileOff, non-overlapping
	size int64
}

// NewIndex returns an empty extent index.
func NewIndex() *Index { return &Index{} }

// Size returns the file size implied by the index.
func (ix *Index) Size() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.size
}

// Append registers a new extent covering file bytes
// [Size(), Size()+ext.Len) and returns the file offset the extent was
// assigned (callers use it to mark the exact range dirty even when
// appends race).
func (ix *Index) Append(ext Extent) int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	off := ix.size
	ix.runs = append(ix.runs, mapping{FileOff: off, Ext: ext})
	ix.size += ext.Len
	return off
}

// Truncate cuts the file to its first n bytes and returns the device
// extents that backed the rest — whole runs past n, and the tail of the
// run n falls inside — for the caller to release.
func (ix *Index) Truncate(n int64) []Extent {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if n < 0 || n >= ix.size {
		return nil
	}
	i := sort.Search(len(ix.runs), func(i int) bool {
		return ix.runs[i].FileOff+ix.runs[i].Ext.Len > n
	})
	var cut []Extent
	if keep := n - ix.runs[i].FileOff; keep > 0 {
		r := &ix.runs[i].Ext
		cut = append(cut, Extent{Off: r.Off + keep, Len: r.Len - keep})
		r.Len = keep
		i++
	}
	for _, r := range ix.runs[i:] {
		cut = append(cut, r.Ext)
	}
	ix.runs, ix.size = ix.runs[:i], n
	return cut
}

// Runs returns the number of extents in the index.
func (ix *Index) Runs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.runs)
}

// Extents returns a copy of all extents, in file order.
func (ix *Index) Extents() []Extent {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]Extent, len(ix.runs))
	for i, r := range ix.runs {
		out[i] = r.Ext
	}
	return out
}

// Slice describes the piece of a device extent that backs part of a file
// range lookup.
type Slice struct {
	Ext Extent // the containing extent
	Off int64  // offset within Ext
	Len int64  // bytes available in this slice
}

// Resolve maps the file range [off, off+n) to device slices. The returned
// slices cover min(n, Size()-off) bytes; a lookup past EOF returns nil.
func (ix *Index) Resolve(off, n int64) []Slice {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if off < 0 || n <= 0 || off >= ix.size {
		return nil
	}
	if off+n > ix.size {
		n = ix.size - off
	}
	i := sort.Search(len(ix.runs), func(i int) bool {
		return ix.runs[i].FileOff+ix.runs[i].Ext.Len > off
	})
	var out []Slice
	for ; i < len(ix.runs) && n > 0; i++ {
		r := ix.runs[i]
		inner := off - r.FileOff
		if inner < 0 {
			inner = 0
			off = r.FileOff
		}
		avail := r.Ext.Len - inner
		take := avail
		if take > n {
			take = n
		}
		out = append(out, Slice{Ext: r.Ext, Off: inner, Len: take})
		off += take
		n -= take
	}
	return out
}
