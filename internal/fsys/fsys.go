// Package fsys implements ThemisIO's user-space file system (§4.3): a
// byte-addressable store where "both directories and files are stored as
// files, and files and metadata are spread across ThemisIO servers using
// a consistent hash function". Each server holds one Shard: the namespace
// entries placed on it plus the extent-indexed local stripe of each file.
// Placement and striping across servers are the client's job.
//
// Concurrency follows the paper: concurrent reads need no locking;
// concurrent writes to non-conflicting byte ranges proceed without
// limitation; metadata updates are serialized per shard.
package fsys

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"themisio/internal/storage"
)

// Errors mirror the POSIX conditions the intercepted functions surface.
var (
	ErrNotExist  = errors.New("fsys: no such file or directory")
	ErrExist     = errors.New("fsys: file exists")
	ErrIsDir     = errors.New("fsys: is a directory")
	ErrNotDir    = errors.New("fsys: not a directory")
	ErrNotEmpty  = errors.New("fsys: directory not empty")
	ErrBadOffset = errors.New("fsys: negative offset")
	// ErrStaleLayout reports an operation against a layout this shard no
	// longer serves: the entry was migrated away (rebalancing moved its
	// stripe to another server), is write-frozen mid-migration, or its
	// layout generation no longer matches the caller's cached one. The
	// condition is routing staleness, not data loss — the caller re-stats
	// the path to learn the current layout and retries.
	ErrStaleLayout = errors.New("fsys: stale file layout (migrated)")
	// ErrTornAppend reports a positional append that partially overlaps
	// the landed stripe: its offset is inside the local size but its end
	// extends past it. A whole-chunk duplicate (a retransmit of bytes
	// that already landed) is tolerated as success; a partial overlap
	// means chunk boundaries drifted between attempts, and accepting it
	// would double-write the overlapped range.
	ErrTornAppend = errors.New("fsys: positional append partially overlaps landed data")
	// ErrParkedFull reports a positional append parked-bytes budget
	// overflow: too many out-of-order chunks are waiting for a missing
	// predecessor. The pipelined client's in-flight window keeps real
	// traffic far under the bound, so hitting it means frames were lost
	// or a peer is misbehaving; the write fails and the client repairs.
	ErrParkedFull = errors.New("fsys: positional append reorder buffer full")
)

// FileInfo is the stat result.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
	// Stripes is the number of shards the file's data spans; StripeUnit
	// is the bytes per stripe chunk. Both are laid down at creation so
	// any client can discover a file's layout from a stat.
	Stripes    int
	StripeUnit int64
	// StripeSet is the ordered server set holding the stripes, fixed at
	// creation; readers follow it instead of re-deriving placement from
	// a ring that may have changed since.
	StripeSet []string
	// LayoutGen is the layout generation: 1 at creation, bumped every
	// time rebalancing rewrites the recorded layout. Clients cache it
	// per handle and echo it on reads and writes, so a server can tell
	// a request computed against a superseded layout from a current one.
	LayoutGen uint64
}

// node is one namespace entry on a shard.
type node struct {
	isDir    bool
	children map[string]bool // directories: child names
	index    *storage.Index  // files: local extent index
	stripes  int
	unit     int64
	set      []string
	// gen is the entry's creation generation (unique per shard
	// lifetime): stage-out work harvested from one incarnation of a
	// path must never land against a later one (unlink + recreate).
	gen uint64
	// layoutGen is the recorded layout's generation (see
	// FileInfo.LayoutGen); sealed write-freezes the local stripe while
	// a migration copies it (reads still serve, writes get
	// ErrStaleLayout so no acknowledged byte can miss the cutover copy).
	// sealedAt records when the seal was placed, so the zombie sweep
	// can tell a live migration's seal from one whose coordinator died
	// between cutover and drop delivery.
	layoutGen uint64
	sealed    bool
	sealedAt  time.Time
	// dirty tracks byte ranges written since the last stage-out (files);
	// metaDirty marks an entry whose existence or child set is not yet
	// staged (set at creation — so empty files reach the backing store
	// — and on directory child changes). Both feed the drain engine
	// (see stageout.go).
	dirty     *storage.RangeSet
	metaDirty bool
	// appendMu serializes every append (positional or plain) to this
	// entry. Plain appends used to ride on the store's allocator mutex
	// alone, but the positional path's park/drain step must be atomic
	// with the landing append: a plain (repair) append interleaving a
	// drain could land between a chunk and its parked successor and
	// shear the stripe. Acquired under the shard read-lock; reads stay
	// lock-free against appends as before.
	appendMu sync.Mutex
	// parked holds out-of-order positional-append chunks keyed by their
	// target offset, waiting for the gap before them to land (copies —
	// the transport frame backing the request is released when its
	// response is sent). parkedBytes bounds the buffer (maxParkedBytes);
	// parkedAt is when the oldest current resident arrived, for the
	// zombie sweep. Guarded by appendMu.
	parked      map[int64][]byte
	parkedBytes int64
	parkedAt    time.Time
	// touched is, on a pending entry (see migrate.go), when its last
	// chunk arrived (unix nanoseconds): the sweep releases an entry whose
	// coordinator went quiet.
	touched atomic.Int64
}

// Shard is the per-server piece of the file system: the namespace
// entries whose paths hash to this server, plus local extents of striped
// files.
type Shard struct {
	name  string
	store *storage.Store

	mu    sync.RWMutex
	nodes map[string]*node
	// genCtr issues node creation generations (see node.gen).
	genCtr uint64
	// tombstones records entries removed since the last TakeTombstones —
	// the drain engine propagates them as backing-store deletes of this
	// server's own staged objects.
	tombstones []Tombstone
	// moved marks paths whose local stripe rebalancing migrated away:
	// operations from clients still holding the old layout, or whose
	// ring still names this server, answer ErrStaleLayout instead of
	// ErrNotExist (which would read as an unlink), and a stat's answer
	// names the layout the file went to, so the client follows it.
	// Cleared when the path is created or restored here again, and
	// swept after a retention far exceeding every client retry window,
	// so the map cannot grow with lifetime migration count.
	moved map[string]movedTo
	// pending holds the migrating-in stripes not yet committed, by path
	// (see migrate.go).
	pending map[string]*node
}

// movedTo is a moved marker: when the local stripe was dropped, and the
// committed layout it was dropped for.
type movedTo struct {
	at time.Time
	to FileInfo
}

// NewShard returns a shard named name with a device of the given
// capacity. The root directory exists on every shard (path lookups for
// "/" must succeed wherever they land).
func NewShard(name string, capacity int64) *Shard {
	s := &Shard{
		name:    name,
		store:   storage.NewStore(capacity),
		nodes:   map[string]*node{},
		moved:   map[string]movedTo{},
		pending: map[string]*node{},
	}
	s.nodes["/"] = &node{isDir: true, children: map[string]bool{}}
	return s
}

// Name returns the shard's server name.
func (s *Shard) Name() string { return s.name }

// Used returns allocated device bytes.
func (s *Shard) Used() int64 { return s.store.Used() }

// clean canonicalizes a path: path.Clean("/" + strings.TrimSpace(p)). A
// path that already is canonical — what every client sends on every
// request — comes back as it is, without the three allocations of saying
// so the long way.
func clean(p string) string {
	if isClean(p) {
		return p
	}
	return path.Clean("/" + strings.TrimSpace(p))
}

// isClean reports whether p is rooted, carries no space clean would trim
// and has no empty, "." or ".." element and no trailing slash. It may say
// no to a canonical path (one ending in a non-ASCII byte), never yes to
// another.
func isClean(p string) bool {
	n := len(p)
	if n == 0 || p[0] != '/' {
		return false
	}
	if n == 1 {
		return true
	}
	// The last byte: no slash, no ASCII space, and no multi-byte rune,
	// which may be a space.
	if last := p[n-1]; last == '/' || last == ' ' || ('\t' <= last && last <= '\r') || last >= utf8.RuneSelf {
		return false
	}
	for i := 1; i < n; i++ {
		if p[i-1] != '/' {
			continue
		}
		// An element starts at i.
		switch {
		case p[i] == '/':
			return false
		case p[i] != '.':
		case i+1 == n || p[i+1] == '/':
			return false
		case p[i+1] == '.' && (i+2 == n || p[i+2] == '/'):
			return false
		}
	}
	return true
}

// split cuts the canonical path p into its parent directory, itself
// canonical, and its last element (path.Split leaves the parent its
// trailing slash, which clean would then have to take off again).
func split(p string) (parent, name string) {
	parent, name = path.Split(p)
	if len(parent) > 1 {
		parent = parent[:len(parent)-1]
	}
	return parent, name
}

// CreateEntry records a namespace entry (file or directory) on this
// shard without touching the parent directory (Mkdir and CreateStriped
// add the parent check and the child link; stage-in and migration install
// entries directly).
func (s *Shard) CreateEntry(p string, dir bool, stripes int, unit int64, set []string) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[p]; ok {
		return ErrExist
	}
	s.insertLocked(p, dir, stripes, unit, set)
	return nil
}

// insertLocked installs a fresh entry at the free path p. Caller holds
// s.mu.
func (s *Shard) insertLocked(p string, dir bool, stripes int, unit int64, set []string) *node {
	s.genCtr++
	delete(s.moved, p) // a fresh incarnation supersedes any moved marker
	n := &node{isDir: dir, stripes: stripes, unit: unit, set: set, gen: s.genCtr, metaDirty: true}
	if dir {
		n.children = map[string]bool{}
	} else {
		n.layoutGen = 1
		n.index = storage.NewIndex()
		n.dirty = storage.NewRangeSet()
	}
	s.nodes[p] = n
	return n
}

// AddChild records a child name in a directory owned by this shard.
func (s *Shard) AddChild(dir, child string) error {
	dir = clean(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.nodes[dir]
	if !ok {
		return ErrNotExist
	}
	if !d.isDir {
		return ErrNotDir
	}
	d.children[child] = true
	d.metaDirty = true
	return nil
}

// RemoveChild removes a child name from a directory owned by this shard.
func (s *Shard) RemoveChild(dir, child string) error {
	dir = clean(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.nodes[dir]
	if !ok {
		return ErrNotExist
	}
	delete(d.children, child)
	d.metaDirty = true
	return nil
}

// RemoveEntry deletes a namespace entry. Directories must be empty.
func (s *Shard) RemoveEntry(p string) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[p]
	if !ok {
		return ErrNotExist
	}
	return s.removeLocked(p, n)
}

// removeLocked deletes entry n at p, releasing its extents. Caller holds
// s.mu.
func (s *Shard) removeLocked(p string, n *node) error {
	if n.isDir && len(n.children) > 0 {
		return ErrNotEmpty
	}
	if n.index != nil {
		// One merge pass, not one free-list insertion per extent: every
		// request on this server waits behind s.mu meanwhile. It never
		// fails for extents the index allocated.
		if err := s.store.ReleaseAll(n.index.Extents()); err != nil {
			return fmt.Errorf("fsys: releasing %s: %w", p, err)
		}
	}
	delete(s.nodes, p)
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeIndex(n)})
	return nil
}

// Stat returns metadata for an entry owned by this shard. For files, Size
// is the size of the local stripe only; the client sums stripes.
func (s *Shard) Stat(p string) (FileInfo, error) {
	return s.StatGen(p, 0)
}

// StatGen is Stat with a layout-generation expectation checked inside
// the same critical section that reads the entry (layoutGen 0 skips
// the check): a caller comparing with a separate lookup could race a
// migration commit swapping the entry between the check and the read.
func (s *Shard) StatGen(p string, layoutGen uint64) (FileInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, fi, err := s.statLocked(clean(p), layoutGen)
	return fi, err
}

// statLocked resolves the entry at the cleaned path p and describes it;
// a path whose stripe migrated away is described by the layout it went
// to, with ErrStaleLayout. Caller holds s.mu.
func (s *Shard) statLocked(p string, layoutGen uint64) (*node, FileInfo, error) {
	n, err := s.entry(p, layoutGen)
	if err != nil {
		return nil, s.moved[p].to, err
	}
	return n, describe(p, n), nil
}

// entry resolves the entry at the cleaned path p, checked against an
// expected layout generation (0 skips the check). A path whose stripe
// migrated away answers ErrStaleLayout, not ErrNotExist. Caller holds
// s.mu.
func (s *Shard) entry(p string, layoutGen uint64) (*node, error) {
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return nil, ErrStaleLayout
		}
		return nil, ErrNotExist
	}
	if layoutGen != 0 && n.layoutGen != 0 && n.layoutGen != layoutGen {
		return nil, ErrStaleLayout
	}
	return n, nil
}

// describe is the stat result of entry n at p. Caller holds s.mu.
func describe(p string, n *node) FileInfo {
	fi := FileInfo{Path: p, IsDir: n.isDir, Stripes: n.stripes, StripeUnit: n.unit, StripeSet: n.set, LayoutGen: n.layoutGen}
	if n.index != nil {
		fi.Size = n.index.Size()
	}
	return fi
}

// Readdir lists a directory owned by this shard, sorted.
func (s *Shard) Readdir(p string) ([]string, error) {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		return nil, ErrNotExist
	}
	if !n.isDir {
		return nil, ErrNotDir
	}
	out := make([]string, 0, len(n.children))
	for c := range n.children {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// Append writes data to the end of the local stripe of the file and
// returns the new local size. The shard read-lock is held for the whole
// operation: concurrent appends and reads still proceed in parallel
// (shared lock, and extent allocation serializes only on the store's
// own mutex, §4.3), but an entry replacement (a migration commit or
// drop, which releases the node's extents) cannot interleave and orphan
// an acknowledged write.
func (s *Shard) Append(p string, data []byte) (int64, error) {
	return s.AppendGen(p, data, nil, 0)
}

// AppendGen is Append with a layout-generation expectation checked
// inside the same critical section that resolves the entry (layoutGen
// 0 skips the check) — a check taken under a separate lock could pass
// against the old entry and then append to the one a migration commit
// swapped in, landing an old-layout chunk the trim machinery never
// sees.
//
// A non-nil placed is the reserved extent data already sits in (see
// Reserve): a write whose bytes land adopts it and empties *placed, and
// any other outcome leaves it for the caller to Unreserve. With nothing
// placed, data is copied into a fresh extent.
func (s *Shard) AppendGen(p string, data []byte, placed *storage.Extent, layoutGen uint64) (int64, error) {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.writable(p, layoutGen)
	if err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return n.index.Size(), nil
	}
	n.appendMu.Lock()
	defer n.appendMu.Unlock()
	if err := s.landLocked(n, data, placed); err != nil {
		return 0, err
	}
	// A repair append can close the gap a parked positional chunk was
	// waiting on.
	if err := s.drainParked(n); err != nil {
		return 0, err
	}
	return n.index.Size(), nil
}

// Reserve reserves n bytes of device for a write payload that is read
// straight into them before its write reaches the shard, and returns the
// extent with its bytes. The reservation counts in Used until a write
// adopts it (AppendGen, AppendAt, Install) or Unreserve returns it.
func (s *Shard) Reserve(n int) (storage.Extent, []byte, error) {
	ext, err := s.store.Alloc(int64(n))
	if err != nil {
		return storage.Extent{}, nil, err
	}
	return ext, s.store.View(ext), nil
}

// Unreserve returns a reservation no write adopted. The extent must come
// from Reserve and go back once: the store refusing it means two owners
// believed they held it, a bug that would hand one file's bytes to
// another, so it panics.
func (s *Shard) Unreserve(ext storage.Extent) {
	if err := s.store.Release(ext); err != nil {
		panic(fmt.Sprintf("fsys: unreserve %+v: %v", ext, err))
	}
}

// file is entry for a file. Caller holds s.mu.
func (s *Shard) file(p string, layoutGen uint64) (*node, error) {
	n, err := s.entry(p, layoutGen)
	if err == nil && n.isDir {
		return nil, ErrIsDir
	}
	return n, err
}

// writable is file for a write: a sealed entry is write-frozen
// mid-migration, and refusing (instead of accepting a byte the cutover
// copy has already passed) is what makes "no acknowledged write is ever
// lost" hold through a rebalance. Caller holds s.mu.
func (s *Shard) writable(p string, layoutGen uint64) (*node, error) {
	n, err := s.file(p, layoutGen)
	if err == nil && n.sealed {
		return nil, ErrStaleLayout
	}
	return n, err
}

// maxParkedBytes bounds the per-entry positional-append reorder buffer.
// The pipelined client's in-flight window is a few MiB; anything near
// this bound is lost frames or a misbehaving peer, not normal reordering.
const maxParkedBytes = 32 << 20

// AppendAtGen is AppendAt with nothing placed, kept under its old name
// for the benchmark module, which compiles against it.
func (s *Shard) AppendAtGen(p string, off int64, data []byte, layoutGen uint64) (int64, error) {
	return s.AppendAt(p, off, data, nil, layoutGen)
}

// AppendAt is AppendGen with an explicit target offset into the local
// stripe: the server side of pipelined striped writes. The server's
// execution slots may run a multiplexed connection's chunks out of order;
// the offset makes landing order-independent:
//
//   - off == local size: the chunk lands now, then any parked successors
//     whose gap it closed drain in offset order.
//   - off+len ≤ local size: a retransmit of bytes that already landed —
//     success (idempotent), nothing written.
//   - off inside the size but end past it: ErrTornAppend (chunk
//     boundaries drifted between attempts; accepting would double-write).
//   - off > local size: the chunk is parked (copied — the caller keeps
//     ownership of data) until its predecessor lands, and the call
//     SUCCEEDS immediately. The early ack is sound by induction: every
//     parked chunk either drains before its predecessor's own ack is
//     sent, or its predecessor failed — in which case the client sees
//     that failure and repairs. Parked chunks stranded by a dead client
//     are dropped by SweepParked.
//
// Only the first case adopts a placed extent (see AppendGen). Returns
// the local size the stripe has (or will have, for a parked chunk) once
// every acked byte lands.
func (s *Shard) AppendAt(p string, off int64, data []byte, placed *storage.Extent, layoutGen uint64) (int64, error) {
	p = clean(p)
	if off < 0 {
		return 0, ErrBadOffset
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.writable(p, layoutGen)
	if err != nil {
		return 0, err
	}
	return s.appendAt(n, off, data, placed)
}

// appendAt lands data at offset off of n's local stripe by AppendAt's
// rules. Caller holds s.mu (read).
func (s *Shard) appendAt(n *node, off int64, data []byte, placed *storage.Extent) (int64, error) {
	n.appendMu.Lock()
	defer n.appendMu.Unlock()
	size := n.index.Size()
	end := off + int64(len(data))
	switch {
	case len(data) == 0:
		return size, nil
	case end <= size:
		// Whole-chunk duplicate: already landed, ack again.
		return size, nil
	case off < size:
		return 0, fmt.Errorf("%w: off %d len %d local size %d", ErrTornAppend, off, len(data), size)
	case off > size:
		if n.parkedBytes+int64(len(data)) > maxParkedBytes {
			return 0, ErrParkedFull
		}
		if n.parked == nil {
			n.parked = map[int64][]byte{}
		}
		if _, dup := n.parked[off]; !dup {
			// Copy: the request frame (or placed extent) backing data is
			// given back as soon as the worker sends this (successful)
			// response.
			cp := make([]byte, len(data))
			copy(cp, data)
			n.parked[off] = cp
			n.parkedBytes += int64(len(data))
			if len(n.parked) == 1 {
				n.parkedAt = time.Now()
			}
		}
		return end, nil
	}
	if err := s.landLocked(n, data, placed); err != nil {
		return 0, err
	}
	if err := s.drainParked(n); err != nil {
		return 0, err
	}
	return n.index.Size(), nil
}

// landLocked puts data at the end of n's local stripe: it adopts the
// placed extent data already sits in and empties *placed, or, with
// nothing placed, reserves an extent and copies data into it. Caller
// holds s.mu (read) and n.appendMu.
func (s *Shard) landLocked(n *node, data []byte, placed *storage.Extent) error {
	if placed != nil && placed.Len > 0 {
		s.adoptLocked(n, *placed)
		*placed = storage.Extent{}
		return nil
	}
	ext, err := s.store.Alloc(int64(len(data)))
	if err != nil {
		return err
	}
	copy(s.store.View(ext), data)
	s.adoptLocked(n, ext)
	return nil
}

// adoptLocked makes the filled extent ext the next bytes of n's local
// stripe and marks them dirty: the one place bytes join a file. Caller
// holds s.mu, and n.appendMu when n is reachable by writers.
func (s *Shard) adoptLocked(n *node, ext storage.Extent) {
	off := n.index.Append(ext)
	if n.dirty != nil {
		n.dirty.Mark(off, ext.Len)
	}
}

// drainParked lands every parked chunk whose offset has become the
// local size, in offset order. Caller holds s.mu (read) and n.appendMu.
func (s *Shard) drainParked(n *node) error {
	for len(n.parked) > 0 {
		size := n.index.Size()
		d, ok := n.parked[size]
		if !ok {
			return nil
		}
		delete(n.parked, size)
		n.parkedBytes -= int64(len(d))
		if err := s.landLocked(n, d, nil); err != nil {
			return err
		}
	}
	return nil
}

// SweepParked drops parked positional-append chunks older than maxAge —
// residue of a client that died mid-pipeline (its predecessor chunk
// never arrived, so the gap never closes). Dropping is safe: the bytes
// were acked, but the ack chain is broken at the missing predecessor,
// so the client (or its successor re-running the job) observed a failed
// write and repairs from the landed size. Returns chunks dropped.
func (s *Shard) SweepParked(maxAge time.Duration) int {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, n := range s.nodes {
		if len(n.parked) == 0 || now.Sub(n.parkedAt) < maxAge {
			continue
		}
		dropped += len(n.parked)
		n.parked = nil
		n.parkedBytes = 0
	}
	return dropped
}

// ReadAt reads up to len(buf) bytes of the local stripe at offset off;
// short reads at EOF return the available prefix. Like Append, the
// shard read-lock is held across the copy so the extents cannot be
// released by a concurrent entry replacement mid-read.
func (s *Shard) ReadAt(p string, off int64, buf []byte) (int, error) {
	return s.ReadAtGen(p, off, buf, 0)
}

// ReadAtGen is ReadAt with a layout-generation expectation checked
// inside the read's critical section (layoutGen 0 skips the check), so
// a reader holding a superseded layout can never be served re-striped
// bytes by an entry swapped in mid-request.
func (s *Shard) ReadAtGen(p string, off int64, buf []byte, layoutGen uint64) (int, error) {
	p = clean(p)
	if off < 0 {
		return 0, ErrBadOffset
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.file(p, layoutGen)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, sl := range n.index.Resolve(off, int64(len(buf))) {
		m, err := s.store.ReadAt(sl.Ext, sl.Off, buf[total:total+int(sl.Len)])
		total += m
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Exists reports whether the shard owns an entry at p.
func (s *Shard) Exists(p string) bool {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.nodes[p]
	return ok
}

// DefaultStripeUnit is the stripe unit used when none is configured.
const DefaultStripeUnit = 1 << 20

// Mkdir creates a directory and links it into its parent ("directory and
// file creation updates the content of the parent directory", §4.3).
func (s *Shard) Mkdir(p string) error {
	if p = clean(p); p == "/" {
		return ErrExist
	}
	_, err := s.createLinked(p, true, 0, 0, nil)
	return err
}

// CreateStriped opens or creates a file (POSIX O_CREAT without O_EXCL)
// and describes the entry now at p: a new empty file recording the given
// stripe layout (width, unit, server set) and linked into its parent, or
// the file already there under the layout it was created with — which
// also makes a striped create that reached only part of its set
// retry-safe. This shard holds one local stripe; the recorded layout lets
// any later client discover the rest.
func (s *Shard) CreateStriped(p string, stripes int, unit int64, set []string) (FileInfo, error) {
	if stripes <= 0 {
		stripes = 1
	}
	if unit <= 0 {
		unit = DefaultStripeUnit
	}
	return s.createLinked(clean(p), false, stripes, unit, set)
}

// createLinked is lookup + parent check + entry + child link in one
// critical section: done in separate ones, an rmdir of the still-empty
// parent could land between the entry and its link and orphan the entry.
func (s *Shard) createLinked(p string, dir bool, stripes int, unit int64, set []string) (FileInfo, error) {
	parent, name := split(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, fi, err := s.statLocked(p, 0); err == nil {
		if dir || n.isDir {
			return FileInfo{}, ErrExist
		}
		return fi, nil
	}
	d, _, err := s.statLocked(parent, 0)
	if err != nil {
		return FileInfo{}, err
	}
	if !d.isDir {
		return FileInfo{}, ErrNotDir
	}
	d.children[name] = true
	d.metaDirty = true
	return describe(p, s.insertLocked(p, dir, stripes, unit, set)), nil
}

// Unlink removes a file's local stripe or an empty directory, and its
// link in the parent, in one critical section, and describes the entry
// it removed. A path whose stripe migrated away answers ErrStaleLayout,
// not ErrNotExist.
func (s *Shard) Unlink(p string) (FileInfo, error) {
	if p = clean(p); p == "/" {
		return FileInfo{}, ErrNotEmpty
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, fi, err := s.statLocked(p, 0)
	if err == nil {
		err = s.removeLocked(p, n)
	}
	if err != nil {
		return FileInfo{}, err
	}
	parent, name := split(p)
	if d := s.nodes[parent]; d != nil && d.isDir { // a restored entry's parent may live on another shard
		delete(d.children, name)
		d.metaDirty = true
	}
	return fi, nil
}
