// Package backing implements the stage-out half of the burst-buffer
// lifecycle: a backing-store interface over which servers write dirty
// data back asynchronously (stage-out), and from which a server restores
// its shard after a restart (stage-in) or survivors re-hydrate a failed
// member's ring segment (failover recovery).
//
// The paper's conclusion names persistence — "log-structure
// byte-addressable file system designs and persistent data structure
// strategy to enable fault tolerance" — as the open future-work item;
// this package supplies the data path for it. The backing store plays
// the role of the parallel file system behind a production burst buffer:
// slower, durable, and shared by every server.
//
// Layout of the local-directory implementation (Dir): one object file
// per staged entry under objects/, named by a hash of (owner, path,
// stripe), plus one JSON metadata row per object under meta/. Rows are
// written atomically (temp file + rename) and deleted with a single
// unlink, so the concurrent server processes of one cluster — which
// all open the same directory — never clobber each other: each row has
// exactly one writer (the owner server), and cross-owner deletes
// (unlink propagation, recovery cleanup) remove whole rows instead of
// rewriting shared state.
package backing

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileMeta describes one staged object: which entry it belongs to, which
// stripe of the entry it holds, and the stripe layout recorded at
// creation so recovery can reassemble the full file.
type FileMeta struct {
	// Owner is the server (listen address) that staged the object.
	// Directory entries are replicated on every server, so the owner is
	// part of the object identity; file stripes are unique per (path,
	// stripe) but keep the owner for restart re-hydration.
	Owner string `json:"owner"`
	// Path is the canonical file-system path of the entry.
	Path string `json:"path"`
	// IsDir marks a directory entry; Children are its entries.
	IsDir    bool     `json:"is_dir,omitempty"`
	Children []string `json:"children,omitempty"`
	// Stripe is which stripe of the file this object holds; Stripes,
	// StripeUnit and StripeSet are the layout recorded at creation.
	Stripe     int      `json:"stripe"`
	Stripes    int      `json:"stripes,omitempty"`
	StripeUnit int64    `json:"stripe_unit,omitempty"`
	StripeSet  []string `json:"stripe_set,omitempty"`
	// LayoutGen is the layout generation recorded with the stripes (so
	// failover adoption can install a generation newer than any client
	// cached before the failure).
	LayoutGen uint64 `json:"layout_gen,omitempty"`
	// Size is the object's content length in bytes (the local stripe
	// size, not the global file size).
	Size int64 `json:"size"`
}

// Store is the backing-store interface. Implementations must be safe
// for concurrent use: the drain engine writes from worker goroutines
// while recovery reads the manifest.
type Store interface {
	// WriteRange stages data at byte offset off of the object identified
	// by meta (owner, path, stripe), creating or extending it as needed
	// and updating the manifest entry's layout metadata.
	WriteRange(meta FileMeta, off int64, data []byte) error
	// ReadObject returns the full content and metadata of the object for
	// (owner, path, stripe). An empty owner matches any — file stripes
	// are unique per (path, stripe) in steady state, and for replicated
	// directory entries any owner's copy is equivalent.
	ReadObject(owner, path string, stripe int) ([]byte, FileMeta, error)
	// DeleteObject removes the single object (owner, path, stripe).
	// Deliberately the only delete in the interface: unlink write-back
	// and recovery cleanup each remove exactly the rows they own — a
	// path-wide, all-owners delete could destroy rows another server
	// (or a newer incarnation of the path) staged concurrently.
	DeleteObject(owner, path string, stripe int) error
	// Manifest returns a copy of all staged-object metadata, sorted by
	// (path, stripe, owner).
	Manifest() ([]FileMeta, error)
}

// ErrNotStaged reports a lookup of an object the store does not hold.
var ErrNotStaged = fmt.Errorf("backing: object not staged")

// Dir is the local-directory Store: object content under objects/, one
// JSON metadata row per object under meta/ — the shape a PFS-backed
// deployment would use. Every server process of a cluster opens the
// same directory; per-row files keep them coherent without locks: a row
// has exactly one writer (its owner server, serialized by that
// process's mu), row installs are atomic renames, and cross-owner
// deletes are single unlinks. The one benign race — an unlink removing
// a row the owner concurrently rewrites — self-heals because the owner
// processes the same unlink as a tombstone on its next pump.
type Dir struct {
	root string
	mu   sync.Mutex
}

// objKey names an object and its metadata row: a 64-bit hash of the
// identity triple. Hashing keeps arbitrary paths (and owner addresses
// with ':') out of the host file system's namespace rules.
func objKey(owner, path string, stripe int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", owner, path, stripe)
	return fmt.Sprintf("%016x-%d", h.Sum64(), stripe)
}

// OpenDir opens (creating if needed) a directory-backed store rooted at
// root.
func OpenDir(root string) (*Dir, error) {
	for _, sub := range []string{"objects", "meta"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("backing: %w", err)
		}
	}
	return &Dir{root: root}, nil
}

func (d *Dir) rowPath(key string) string {
	return filepath.Join(d.root, "meta", key+".json")
}

func (d *Dir) objectPath(key string) string {
	return filepath.Join(d.root, "objects", key+".obj")
}

// loadRow reads one metadata row; ok=false if the object is not staged.
func (d *Dir) loadRow(key string) (FileMeta, bool, error) {
	raw, err := os.ReadFile(d.rowPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return FileMeta{}, false, nil
		}
		return FileMeta{}, false, fmt.Errorf("backing: reading row: %w", err)
	}
	var m FileMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return FileMeta{}, false, fmt.Errorf("backing: parsing row %s: %w", key, err)
	}
	return m, true, nil
}

// saveRow installs one metadata row atomically (temp + rename).
func (d *Dir) saveRow(key string, m FileMeta) error {
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	tmp := d.rowPath(key) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("backing: %w", err)
	}
	if err := os.Rename(tmp, d.rowPath(key)); err != nil {
		return fmt.Errorf("backing: %w", err)
	}
	return nil
}

// rows loads every metadata row in the store.
func (d *Dir) rows() ([]FileMeta, []string, error) {
	paths, err := filepath.Glob(filepath.Join(d.root, "meta", "*.json"))
	if err != nil {
		return nil, nil, err
	}
	var metas []FileMeta
	var keys []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue // row deleted under the glob
			}
			return nil, nil, fmt.Errorf("backing: reading row: %w", err)
		}
		var m FileMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, nil, fmt.Errorf("backing: parsing %s: %w", filepath.Base(p), err)
		}
		metas = append(metas, m)
		keys = append(keys, strings.TrimSuffix(filepath.Base(p), ".json"))
	}
	return metas, keys, nil
}

// removeObjectLocked deletes one row and its content file. Caller holds
// d.mu.
func (d *Dir) removeObjectLocked(key string, isDir bool) error {
	if err := os.Remove(d.rowPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("backing: %w", err)
	}
	if !isDir {
		if err := os.Remove(d.objectPath(key)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("backing: %w", err)
		}
	}
	return nil
}

// WriteRange implements Store.
func (d *Dir) WriteRange(meta FileMeta, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("backing: negative offset %d", off)
	}
	key := objKey(meta.Owner, meta.Path, meta.Stripe)
	if !meta.IsDir && (len(data) > 0 || off > 0) {
		f, err := os.OpenFile(d.objectPath(key), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("backing: %w", err)
		}
		_, werr := f.WriteAt(data, off)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("backing: writing %s: %w", meta.Path, werr)
		}
		if cerr != nil {
			return fmt.Errorf("backing: closing %s: %w", meta.Path, cerr)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok, err := d.loadRow(key); err != nil {
		return err
	} else if ok && prev.Size > off+int64(len(data)) {
		meta.Size = prev.Size
	} else {
		meta.Size = off + int64(len(data))
	}
	return d.saveRow(key, meta)
}

// ReadObject implements Store.
func (d *Dir) ReadObject(owner, path string, stripe int) ([]byte, FileMeta, error) {
	d.mu.Lock()
	var meta FileMeta
	var key string
	found := false
	var err error
	if owner != "" {
		key = objKey(owner, path, stripe)
		meta, found, err = d.loadRow(key)
	} else {
		var metas []FileMeta
		var keys []string
		metas, keys, err = d.rows()
		for i, m := range metas {
			if m.Path == path && m.Stripe == stripe {
				meta, key, found = m, keys[i], true
				break
			}
		}
	}
	d.mu.Unlock()
	if err != nil {
		return nil, FileMeta{}, err
	}
	if !found {
		return nil, FileMeta{}, fmt.Errorf("%w: %s stripe %d", ErrNotStaged, path, stripe)
	}
	if meta.IsDir || meta.Size == 0 {
		return nil, meta, nil
	}
	data, err := os.ReadFile(d.objectPath(key))
	if err != nil {
		return nil, meta, fmt.Errorf("backing: reading %s: %w", path, err)
	}
	if int64(len(data)) > meta.Size {
		data = data[:meta.Size]
	}
	return data, meta, nil
}

// Delete removes every staged object of path (all stripes, all owners)
// — an operator/GC helper and test utility, intentionally NOT part of
// the Store interface (see DeleteObject's comment).
func (d *Dir) Delete(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	metas, keys, err := d.rows()
	if err != nil {
		return err
	}
	for i, m := range metas {
		if m.Path != path {
			continue
		}
		if err := d.removeObjectLocked(keys[i], m.IsDir); err != nil {
			return err
		}
	}
	return nil
}

// DeleteObject implements Store.
func (d *Dir) DeleteObject(owner, path string, stripe int) error {
	key := objKey(owner, path, stripe)
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok, err := d.loadRow(key)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	return d.removeObjectLocked(key, meta.IsDir)
}

// Manifest implements Store.
func (d *Dir) Manifest() ([]FileMeta, error) {
	d.mu.Lock()
	out, _, err := d.rows()
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		if out[i].Stripe != out[j].Stripe {
			return out[i].Stripe < out[j].Stripe
		}
		return out[i].Owner < out[j].Owner
	})
	return out, nil
}

// Reassemble stitches a striped file back together from its staged
// stripe objects: global unit u lives on stripe u mod stripes, so the
// full content interleaves each stripe object in unit-sized chunks.
// Reassembly is best-effort — it stops at the first missing byte (an
// unstaged stripe truncates the file at the gap), which is the inherent
// contract of asynchronous write-back; a flush before the failure makes
// it exact.
func Reassemble(store Store, path string, stripes int, unit int64) ([]byte, error) {
	// One manifest scan maps stripes to owners; the per-stripe reads are
	// then direct row lookups.
	manifest, err := store.Manifest()
	if err != nil {
		return nil, err
	}
	rowOwner := map[int]string{}
	for _, m := range manifest {
		if m.Path == path && !m.IsDir {
			rowOwner[m.Stripe] = m.Owner
		}
	}
	return reassembleRows(store, path, stripes, unit, rowOwner)
}

// reassembleRows interleaves the stripe objects named by rowOwner
// (stripe index → staging owner); stripes without a row truncate the
// file at their first unit.
func reassembleRows(store Store, path string, stripes int, unit int64, rowOwner map[int]string) ([]byte, error) {
	if stripes <= 1 {
		owner, ok := rowOwner[0]
		if !ok {
			return nil, fmt.Errorf("%w: %s stripe 0", ErrNotStaged, path)
		}
		data, _, err := store.ReadObject(owner, path, 0)
		return data, err
	}
	if unit <= 0 {
		return nil, fmt.Errorf("backing: reassemble %s: no stripe unit", path)
	}
	parts := make([][]byte, stripes)
	for i := 0; i < stripes; i++ {
		owner, ok := rowOwner[i]
		if !ok {
			continue // missing stripe: truncate at its first unit
		}
		data, _, err := store.ReadObject(owner, path, i)
		if err != nil {
			continue
		}
		parts[i] = data
	}
	return Interleave(parts, unit), nil
}

// Interleave stitches per-stripe local contents back into the global
// byte stream of a round-robin layout: global unit u lives on stripe
// u mod len(parts). It stops at the first exhausted stripe that was
// expected to contribute a full unit — the longest prefix every stripe
// agrees on — so a straggling stripe can truncate but never corrupt.
// Join-time rebalancing shares this with failover reassembly: both
// rebuild a file from its stripes, one from live servers, one from
// staged objects.
func Interleave(parts [][]byte, unit int64) []byte {
	if len(parts) == 0 {
		return nil
	}
	if len(parts) == 1 {
		return parts[0]
	}
	cursors := make([]int64, len(parts))
	var out []byte
	for u := int64(0); ; u++ {
		i := int(u % int64(len(parts)))
		avail := int64(len(parts[i])) - cursors[i]
		if avail <= 0 {
			return out
		}
		take := unit
		if take > avail {
			take = avail
		}
		out = append(out, parts[i][cursors[i]:cursors[i]+take]...)
		cursors[i] += take
		if take < unit {
			// A partial unit is the file's tail.
			return out
		}
	}
}
