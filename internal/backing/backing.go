// Package backing implements the stage-out half of the burst-buffer
// lifecycle: a backing-store interface over which servers write dirty
// data back asynchronously (stage-out), and from which a server restores
// its shard after a restart (stage-in) and from which survivors read a
// failed member's stripes when they move its files (failover).
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
// (unlink propagation, a failover's retirement of a dead member's
// objects) remove whole rows instead of rewriting shared state.
package backing

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FileMeta describes one staged object: which entry it belongs to, which
// stripe of the entry it holds, and the stripe layout recorded at
// creation so stage-in and failover can rebuild the file.
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
	// LayoutGen is the layout generation recorded with the stripes (so a
	// restart restores the generation clients cached, and a failover can
	// tell which layout a row belongs to).
	LayoutGen uint64 `json:"layout_gen,omitempty"`
	// Size is the object's content length in bytes (the local stripe
	// size, not the global file size).
	Size int64 `json:"size"`
}

// Store is the backing-store interface. Implementations must be safe
// for concurrent use: the drain engine's chunks are written from several
// goroutines at once while the migrator reads the manifest.
type Store interface {
	// WriteRange stages data at byte offset off of the object identified
	// by meta (owner, path, stripe), creating or extending it as needed
	// and updating the manifest entry's layout metadata.
	WriteRange(meta FileMeta, off int64, data []byte) error
	// ReadRange reads len(buf) bytes at byte offset off of the object
	// identified by meta (owner, path, stripe) — WriteRange's mirror, so
	// stage-in holds one buffer of an object at a time, never the whole
	// object. It returns fewer bytes only with an error: io.EOF past the
	// staged size, ErrNotStaged when the store holds no such object.
	ReadRange(meta FileMeta, off int64, buf []byte) (int, error)
	// DeleteObject removes the single object (owner, path, stripe).
	// Deliberately the only delete in the interface: unlink write-back
	// and a failover's retirement of a dead member's objects each remove
	// exactly the rows they name — a path-wide, all-owners delete could
	// destroy rows another server (or a newer incarnation of the path)
	// staged concurrently.
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
func (d *Dir) rows() ([]FileMeta, error) {
	paths, err := filepath.Glob(filepath.Join(d.root, "meta", "*.json"))
	if err != nil {
		return nil, err
	}
	var metas []FileMeta
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue // row deleted under the glob
			}
			return nil, fmt.Errorf("backing: reading row: %w", err)
		}
		var m FileMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("backing: parsing %s: %w", filepath.Base(p), err)
		}
		metas = append(metas, m)
	}
	return metas, nil
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

// ReadRange implements Store. The row's recorded size bounds the read:
// an object file longer than its row holds no staged bytes past it.
func (d *Dir) ReadRange(meta FileMeta, off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("backing: negative offset %d", off)
	}
	key := objKey(meta.Owner, meta.Path, meta.Stripe)
	d.mu.Lock()
	row, ok, err := d.loadRow(key)
	d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %s stripe %d", ErrNotStaged, meta.Path, meta.Stripe)
	}
	n := 0
	if want := min(int64(len(buf)), row.Size-off); want > 0 {
		f, err := os.Open(d.objectPath(key))
		if err != nil {
			return 0, fmt.Errorf("backing: reading %s: %w", meta.Path, err)
		}
		n, err = f.ReadAt(buf[:want], off)
		f.Close()
		if err != nil {
			return n, fmt.Errorf("backing: reading %s: %w", meta.Path, err)
		}
	}
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// DeleteObject implements Store: the row, then its content file, if any
// (a directory row has none).
func (d *Dir) DeleteObject(owner, path string, stripe int) error {
	key := objKey(owner, path, stripe)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok, err := d.loadRow(key); err != nil || !ok {
		return err
	}
	if err := os.Remove(d.rowPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("backing: %w", err)
	}
	if err := os.Remove(d.objectPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("backing: %w", err)
	}
	return nil
}

// Manifest implements Store.
func (d *Dir) Manifest() ([]FileMeta, error) {
	d.mu.Lock()
	out, err := d.rows()
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
