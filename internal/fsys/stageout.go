package fsys

import (
	"io"
	"sort"

	"themisio/internal/storage"
)

// Stage-out support: the shard-side surface of the burst-buffer
// lifecycle. Writes mark per-file dirty ranges (see Append); the drain
// engine (internal/backing) harvests them here as coalesced chunks,
// stages them to the backing store, and re-marks them on failure.
// A restart re-hydrates entries with RestoreFile/RestoreDir.

// DirtyChunk is one harvested unit of stage-out work: a coalesced byte
// range of one file's local stripe (or a directory's child set, or a
// zero-byte file-creation record), plus the layout metadata the backing
// store records so stage-in and failover can rebuild the file.
type DirtyChunk struct {
	Path     string
	IsDir    bool
	Children []string
	// Gen is the creation generation of the entry the chunk was
	// harvested from; the executor skips the chunk if the path has since
	// been unlinked or recreated (GenOf no longer matches).
	Gen uint64
	// Off and Data are the chunk's byte range within the local stripe.
	Off  int64
	Data []byte
	// Stripe is this shard's position in the file's stripe set; Stripes,
	// Unit, Set and LayoutGen are the recorded layout (LayoutGen rides
	// to the backing store so a restart restores the generation clients
	// cached).
	Stripe    int
	Stripes   int
	Unit      int64
	Set       []string
	LayoutGen uint64
}

// GenOf returns the creation generation of the entry at p, 0 if absent.
func (s *Shard) GenOf(p string) uint64 {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n, ok := s.nodes[p]; ok {
		return n.gen
	}
	return 0
}

// MarkDirtyAll marks the entire current content of p (and its
// existence) un-staged — the repair step after a write raced an
// unlink/recreate of the same path.
func (s *Shard) MarkDirtyAll(p string) {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[p]
	if !ok {
		return
	}
	n.metaDirty = true
	if !n.isDir {
		n.dirty.Mark(0, n.index.Size())
	}
}

// stripeIndex returns this shard's stripe index within n's recorded
// stripe set (0 when unstriped or unrecorded). Caller holds s.mu: a
// migration commit re-labels the set.
func (s *Shard) stripeIndex(n *node) int {
	for i, addr := range n.set {
		if addr == s.name {
			return i
		}
	}
	return 0
}

// DirtyBytes returns the total un-staged bytes across all files (child
// -set changes count as zero bytes but still surface via CollectDirty).
func (s *Shard) DirtyBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, n := range s.nodes {
		if n.dirty != nil {
			total += n.dirty.Bytes()
		}
	}
	return total
}

// HasDirty reports whether any entry has un-staged state.
func (s *Shard) HasDirty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.nodes {
		if n.metaDirty || (n.dirty != nil && !n.dirty.Empty()) {
			return true
		}
	}
	return len(s.tombstones) > 0
}

// harvest is one file's un-staged work, captured under the shard lock
// and materialized into chunks without it (the index and extent store
// are independently synchronized, so the data copy — the expensive part
// — must not stall foreground I/O on the shard mutex).
type harvest struct {
	n *node
	// base is the entry's identity and layout as they stood when the work
	// was taken — a RestoreFile may rewrite the layout generation under
	// the lock while the chunks are still being materialized without it.
	base  DirtyChunk
	zero  bool // entry existence not yet staged (new or empty file)
	spans []storage.Extent
}

// takeLocked captures up to budget bytes of file node n's dirty work
// (budget <= 0 takes everything) and returns the bytes taken. Caller
// holds s.mu.
func (s *Shard) takeLocked(p string, n *node, budget int64) (harvest, int64) {
	h := harvest{n: n, zero: n.metaDirty, base: DirtyChunk{
		Path: p, Gen: n.gen,
		Stripe: s.stripeIndex(n), Stripes: n.stripes, Unit: n.unit,
		Set:       append([]string(nil), n.set...),
		LayoutGen: n.layoutGen,
	}}
	n.metaDirty = false
	h.spans = n.dirty.Take(budget)
	var taken int64
	for _, sp := range h.spans {
		taken += sp.Len
	}
	return h, taken
}

// chunksOf materializes a harvest into chunks of at most chunkBytes,
// carved from into when it is non-nil (the caller sized it to the
// harvest) and allocated otherwise. Called without the shard lock. Spans
// beyond the file's current size (stale marks from a raced repair) are
// discarded; a short read inside the size (a store error) re-marks the
// unread remainder so taken bytes never silently leave the write-back
// bookkeeping.
func (s *Shard) chunksOf(h harvest, chunkBytes int64, into []byte, out []DirtyChunk) []DirtyChunk {
	n, base := h.n, h.base
	emitted := false
	size := n.index.Size()
	for si, span := range h.spans {
		if span.Off >= size {
			continue // stale mark past EOF: unharvestable, drop it
		}
		if span.End() > size {
			span.Len = size - span.Off
		}
		for off := span.Off; off < span.End(); off += chunkBytes {
			end := off + chunkBytes
			if end > span.End() {
				end = span.End()
			}
			var buf []byte
			if into != nil {
				buf, into = into[:end-off], into[end-off:]
			} else {
				buf = make([]byte, end-off)
			}
			got := 0
			for _, sl := range n.index.Resolve(off, int64(len(buf))) {
				m, err := s.store.ReadAt(sl.Ext, sl.Off, buf[got:got+int(sl.Len)])
				got += m
				if err != nil {
					break
				}
			}
			if got > 0 {
				c := base
				c.Off, c.Data = off, buf[:got]
				out = append(out, c)
				emitted = true
			}
			if int64(got) < end-off {
				// Store error mid-span: re-mark the unread remainder AND
				// every span not yet harvested — no taken byte may leave
				// the write-back bookkeeping.
				n.dirty.Mark(off+int64(got), span.End()-off-int64(got))
				for _, rest := range h.spans[si+1:] {
					n.dirty.Mark(rest.Off, rest.Len)
				}
				return out
			}
		}
	}
	if h.zero && !emitted {
		// Nothing else to write, but the entry's existence must reach
		// the backing store (an empty file created then flushed).
		out = append(out, base)
	}
	return out
}

// CollectDirty removes and returns up to maxBytes of dirty data (and any
// number of dirty directory entries), chunked so no single chunk exceeds
// chunkBytes. Paths are visited in sorted order for determinism. The
// caller owns staging the returned chunks; MarkDirty restores a chunk
// that failed to stage. maxBytes <= 0 collects everything.
func (s *Shard) CollectDirty(maxBytes, chunkBytes int64) []DirtyChunk {
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	s.mu.Lock()
	paths := make([]string, 0, len(s.nodes))
	for p, n := range s.nodes {
		if n.metaDirty || (n.dirty != nil && !n.dirty.Empty()) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var out []DirtyChunk
	var files []harvest
	var taken int64
	for _, p := range paths {
		n := s.nodes[p]
		if n.isDir {
			ch := make([]string, 0, len(n.children))
			for c := range n.children {
				ch = append(ch, c)
			}
			sort.Strings(ch)
			out = append(out, DirtyChunk{Path: p, IsDir: true, Gen: n.gen, Children: ch})
			n.metaDirty = false
			continue
		}
		if maxBytes > 0 && taken >= maxBytes {
			continue
		}
		budget := int64(0)
		if maxBytes > 0 {
			budget = maxBytes - taken
		}
		h, got := s.takeLocked(p, n, budget)
		files = append(files, h)
		taken += got
	}
	s.mu.Unlock()
	// Data copies happen outside the shard lock.
	for _, h := range files {
		out = s.chunksOf(h, chunkBytes, nil, out)
	}
	return out
}

// MarkDirty re-marks a byte range of p as un-staged — the failure path
// of the drain engine. A non-positive length re-marks the entry's existence (directories and
// zero-byte file records).
func (s *Shard) MarkDirty(p string, off, n int64) {
	p = clean(p)
	s.mu.RLock()
	nd, ok := s.nodes[p]
	s.mu.RUnlock()
	if !ok {
		return
	}
	if nd.isDir || n <= 0 {
		s.mu.Lock()
		nd.metaDirty = true
		s.mu.Unlock()
		return
	}
	nd.dirty.Mark(off, n)
}

// ClearDirty forgets all un-staged state — called after a restore whose
// source was the backing store itself (the content is staged by
// definition).
func (s *Shard) ClearDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		n.metaDirty = false
		if n.dirty != nil {
			n.dirty.Take(0)
		}
	}
	s.tombstones = nil
}

// Tombstone identifies one removed entry's staged object: the path and
// the stripe index this shard held. Deletes are scoped to the removing
// server's own object — every stripe holder processes the same unlink
// and removes its own row, so a late tombstone can never destroy
// another server's (or a new incarnation's) staged data.
type Tombstone struct {
	Path   string
	Stripe int
}

// TakeTombstones removes and returns the entries unlinked since the
// last call; the drain engine deletes their backing objects.
func (s *Shard) TakeTombstones() []Tombstone {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.tombstones
	s.tombstones = nil
	return out
}

// RestoreFile installs the file fi describes — fi.Size bytes of local
// content under its layout — replacing any local entry at fi.Path: the
// crash-restart stage-in of one staged stripe. fill writes the content
// into a fresh extent at its offsets, in any order, and only when it
// succeeds does the entry swap in, in one critical section: a failed
// fill leaves the shard as it was, and no request sees a half-restored
// file. The restored entry is clean (its bytes came from the backing
// store). fi.LayoutGen is the staged layout generation (0 selects the
// creation default), so clients that cached it before the restart stay
// current. The child entry is recorded in the local parent directory if
// this shard holds it.
func (s *Shard) RestoreFile(fi FileInfo, fill func(dst io.WriterAt) error) error {
	p := clean(fi.Path)
	var ext storage.Extent
	if fi.Size > 0 {
		var err error
		if ext, err = s.store.Alloc(fi.Size); err != nil {
			return err
		}
		if err := fill(extentWriter{s.store, ext}); err != nil {
			_ = s.store.Release(ext)
			return err
		}
	}
	s.mu.Lock()
	var err error
	if old, ok := s.nodes[p]; ok && old.isDir {
		err = ErrIsDir
	} else if ok {
		err = s.store.ReleaseAll(old.index.Extents())
	}
	if err != nil {
		s.mu.Unlock()
		if fi.Size > 0 {
			_ = s.store.Release(ext)
		}
		return err
	}
	n := s.insertLocked(p, false, fi.Stripes, fi.StripeUnit, fi.StripeSet)
	n.metaDirty = false
	if fi.LayoutGen > 0 {
		n.layoutGen = fi.LayoutGen
	}
	if fi.Size > 0 {
		s.adoptLocked(n, ext)
		n.dirty = storage.NewRangeSet() // the staged object already holds these bytes
	}
	s.mu.Unlock()
	if parent, name := split(p); parent != p {
		_ = s.AddChild(parent, name) // parent may live on another shard
	}
	return nil
}

// extentWriter writes into one store extent, at offsets within it.
type extentWriter struct {
	store *storage.Store
	ext   storage.Extent
}

func (w extentWriter) WriteAt(p []byte, off int64) (int, error) {
	return w.store.WriteAt(w.ext, off, p)
}

// RestoreDir installs a directory entry with the given children (a
// union with any existing entry), clean.
func (s *Shard) RestoreDir(p string, children []string) error {
	p = clean(p)
	s.mu.Lock()
	n, ok := s.nodes[p]
	if ok && !n.isDir {
		s.mu.Unlock()
		return ErrNotDir
	}
	if !ok {
		s.genCtr++
		n = &node{isDir: true, children: map[string]bool{}, gen: s.genCtr}
		s.nodes[p] = n
	}
	for _, c := range children {
		n.children[c] = true
	}
	n.metaDirty = false
	s.mu.Unlock()
	if p != "/" {
		parent, name := split(p)
		_ = s.AddChild(parent, name)
	}
	return nil
}
