package backing

import (
	"errors"
	"fmt"
	"io"

	"themisio/internal/fsys"
)

// Re-hydration: the stage-in half of the lifecycle. Two entry points:
//
//   - Rehydrate restores a server's own staged entries at startup (crash
//     or maintenance restart with the same listen address).
//   - RecoverSegment runs on every survivor when members fail: the new
//     ring owner of each affected path rebuilds the full file from the
//     staged stripes and adopts it; other survivors drop their now stale
//     local stripes.
//
// Both stream: every byte read from the store, and every byte staged back
// on the way, moves through one segment-sized buffer per pass.

// segment is what a stage-in pass holds of a file at once.
const segment = 1 << 20

// Rehydrate restores every staged entry owned by self into the shard —
// the crash-restart stage-in. Restored entries are clean (their content
// is, by definition, already staged). Returns the number of entries
// restored.
func Rehydrate(shard *fsys.Shard, store Store, self string) (int, error) {
	manifest, err := store.Manifest()
	if err != nil {
		return 0, err
	}
	n := 0
	// Directories first, so files land in existing parents.
	for _, m := range manifest {
		if m.Owner != self || !m.IsDir {
			continue
		}
		if err := shard.RestoreDir(m.Path, m.Children); err != nil {
			return n, fmt.Errorf("backing: rehydrating %s: %w", m.Path, err)
		}
		n++
	}
	buf := make([]byte, segment)
	for _, m := range manifest {
		if m.Owner != self || m.IsDir {
			continue
		}
		fi := fsys.FileInfo{
			Path: m.Path, Size: m.Size,
			Stripes: m.Stripes, StripeUnit: m.StripeUnit, StripeSet: m.StripeSet,
			LayoutGen: m.LayoutGen,
		}
		if err := shard.RestoreFile(fi, func(dst io.WriterAt) error {
			return copyStripes(store, []FileMeta{m}, 0, m.Size, buf, dst)
		}); err != nil {
			return n, fmt.Errorf("backing: rehydrating %s: %w", m.Path, err)
		}
		n++
	}
	shard.ClearDirty()
	return n, nil
}

// copyStripes copies the first total bytes of a file laid round-robin in
// unit-sized chunks over the staged objects rows (rows[i] holds stripe
// i) into dst at their file offsets, one segment of buf at a time. A
// single row is the file itself, whatever the unit. The caller sizes
// total so no row is read past its staged size (fsys.ConsistentTotal):
// any read error, missing object included, fails the copy.
func copyStripes(store Store, rows []FileMeta, unit, total int64, buf []byte, dst io.WriterAt) error {
	w := int64(len(rows))
	if w == 1 {
		unit = max(total, 1)
	}
	for i, row := range rows {
		size := fsys.LocalLen(total, i, len(rows), unit)
		for off := int64(0); off < size; {
			seg := buf[:min(int64(len(buf)), size-off)]
			if _, err := store.ReadRange(row, off, seg); err != nil {
				return err
			}
			for len(seg) > 0 {
				n := min(unit-off%unit, int64(len(seg)))
				if _, err := dst.WriteAt(seg[:n], (off/unit*w+int64(i))*unit+off%unit); err != nil {
					return err
				}
				seg, off = seg[n:], off+n
			}
		}
	}
	return nil
}

// restage writes the first size bytes of meta.Path's local stripe to the
// store as meta's object, one segment of buf at a time.
func restage(shard *fsys.Shard, store Store, meta FileMeta, size int64, buf []byte) error {
	for off := int64(0); ; {
		seg := buf[:min(int64(len(buf)), size-off)]
		n, err := shard.ReadAt(meta.Path, off, seg)
		if err == nil && n < len(seg) {
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			err = store.WriteRange(meta, off, seg)
		}
		if err != nil {
			return err
		}
		if off += int64(n); off >= size {
			return nil
		}
	}
}

// holders returns the servers holding an object's file, preferring the
// recorded stripe set (the unstriped server-side default records none,
// so the staging owner stands in).
func holders(m FileMeta) []string {
	if len(m.StripeSet) > 0 {
		return m.StripeSet
	}
	return []string{m.Owner}
}

// stageLocal synchronously stages any un-staged dirty bytes of p held
// by this shard, one segment of buf at a time, so recovery never drops
// or rebuilds over a backing copy staler than the live data. On failure
// the unstaged part of the segment is re-marked dirty and the error
// returned (the caller retries the whole pass).
func stageLocal(shard *fsys.Shard, store Store, self, p string, buf []byte) error {
	for {
		chunks := shard.CollectDirtyPath(p, buf)
		if len(chunks) == 0 {
			return nil
		}
		for i, c := range chunks {
			meta := FileMeta{
				Owner: self, Path: c.Path,
				Stripe: c.Stripe, Stripes: c.Stripes,
				StripeUnit: c.Unit, StripeSet: c.Set,
				LayoutGen: c.LayoutGen,
			}
			if err := store.WriteRange(meta, c.Off, c.Data); err != nil {
				for _, r := range chunks[i:] {
					shard.MarkDirty(r.Path, r.Off, int64(len(r.Data)))
				}
				return err
			}
		}
	}
}

// StageAffected synchronously stages this shard's un-staged dirty bytes
// of every file that shares a stripe set with a dead member — the first
// phase of failover recovery, run by every survivor as soon as it
// learns of the failure. Adoption (RecoverSegment) runs a couple of λ
// ticks later, so by the time any adopter copies the file, the other
// survivors' freshest bytes are in the backing store with high
// probability (failure sightings spread by gossip within a round or
// two; a strict guarantee would need cross-server coordination).
func StageAffected(shard *fsys.Shard, store Store, self string, dead []string) error {
	var firstErr error
	buf := make([]byte, segment)
	for _, a := range dead {
		for _, p := range shard.FilesWithServer(a) {
			if err := stageLocal(shard, store, self, p, buf); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RecoverSegment reconciles the shard with the backing store after the
// given members failed. ownerOf maps a path to its current ring owner
// (the post-failover ring, which no longer contains the dead members).
// For every staged file with a dead holder:
//
//   - If self is the path's new ring owner, the file's full content is
//     streamed from the staged stripes and adopted locally under a fresh
//     single-stripe layout (set = [self]); the new copy is staged back
//     immediately and the stale stripe objects are deleted, so the
//     backing store converges on the new layout. The adopted length is
//     fsys.ConsistentTotal of the staged sizes: a stripe without a row
//     truncates the file at its first unit, never corrupts it. Any other
//     read error fails that path for this pass and changes nothing — no
//     local entry, no object — so the next pass retries it.
//   - Otherwise any stale local stripe of the file is dropped: clients
//     re-learn the new layout from the ring owner's metadata, and the
//     stale copy would only squat on device space.
//
// Returns the number of files adopted and dropped.
func RecoverSegment(shard *fsys.Shard, store Store, self string, dead []string, ownerOf func(path string) (string, bool)) (adopted, dropped int, err error) {
	buf := make([]byte, segment)
	isDead := make(map[string]bool, len(dead))
	for _, a := range dead {
		isDead[a] = true
	}
	// Drop pass first, from the shard's own records: a local stripe of a
	// file that lost a holder is stale unless this server is the file's
	// new owner. This must not depend on the manifest — the adopting
	// owner rewrites it concurrently. Any un-staged bytes of the stripe
	// are staged before the drop, so the adopter's copy sees them
	// (the adopter may race ahead of this stage by a gossip round — the
	// same bounded window as any asynchronous write-back).
	var firstErr error
	for _, a := range dead {
		for _, p := range shard.FilesWithServer(a) {
			if owner, ok := ownerOf(p); ok && owner != self {
				if err := stageLocal(shard, store, self, p, buf); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue // keep the local copy; the caller retries
				}
				if shard.DropStale(p) {
					dropped++
				}
			}
		}
	}
	// Adopt pass: collect every affected path whose new ring owner is
	// self — from the manifest (files staged by anyone) unioned with the
	// shard's own records (files written but never yet staged, which
	// have no manifest rows at all but still need their layout rewritten
	// off the dead member).
	manifest, merr := store.Manifest()
	if merr != nil {
		return 0, dropped, merr
	}
	type layout struct {
		stripes int
		unit    int64
		gen     uint64 // highest staged layout generation for the path
	}
	adopt := map[string]*layout{}
	for _, m := range manifest {
		if m.IsDir {
			continue
		}
		hit := false
		for _, h := range holders(m) {
			if isDead[h] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if owner, ok := ownerOf(m.Path); !ok || owner != self {
			continue // the drop pass handled any stale local stripe
		}
		l := adopt[m.Path]
		if l == nil {
			l = &layout{stripes: 1}
			adopt[m.Path] = l
		}
		if m.Stripes > l.stripes {
			l.stripes = m.Stripes
		}
		if m.StripeUnit > 0 {
			l.unit = m.StripeUnit
		}
		if m.LayoutGen > l.gen {
			l.gen = m.LayoutGen
		}
	}
	for _, a := range dead {
		for _, p := range shard.FilesWithServer(a) {
			if _, ok := adopt[p]; ok {
				continue
			}
			if owner, ok := ownerOf(p); !ok || owner != self {
				continue
			}
			fi, serr := shard.Stat(p)
			if serr != nil {
				continue
			}
			adopt[p] = &layout{stripes: fi.Stripes, unit: fi.StripeUnit, gen: fi.LayoutGen}
		}
	}
	if len(adopt) == 0 {
		return 0, dropped, firstErr
	}
	// Stage fresher local bytes of every adopt path first (this server
	// may itself hold stripes of them), then reload the manifest once:
	// the reload maps each (path, stripe) to its row — owner for
	// targeted reads, size for the shrink check — without re-scanning
	// the store per stripe.
	for path := range adopt {
		if rerr := stageLocal(shard, store, self, path, buf); rerr != nil && firstErr == nil {
			firstErr = rerr
		}
	}
	manifest, merr = store.Manifest()
	if merr != nil {
		return 0, dropped, merr
	}
	type rowKey struct {
		path   string
		stripe int
	}
	rows := map[rowKey]FileMeta{}
	for _, m := range manifest {
		if !m.IsDir {
			rows[rowKey{m.Path, m.Stripe}] = m
		}
	}
	for path, l := range adopt {
		w := max(l.stripes, 1)
		staged, sizes := make([]FileMeta, w), make([]int64, w)
		var objs []FileMeta
		for i := range staged {
			if m, ok := rows[rowKey{path, i}]; ok {
				staged[i], sizes[i] = m, m.Size
				objs = append(objs, m)
			}
		}
		// The adopted layout's generation supersedes every staged one, so
		// a client still holding the pre-failure layout is detectably
		// stale instead of passing the generation check against the
		// adopter's rewritten geometry.
		meta := FileMeta{
			Owner: self, Path: path, Stripe: 0, Stripes: 1,
			StripeUnit: l.unit, StripeSet: []string{self},
			LayoutGen: max(l.gen+1, 2),
		}
		var total int64
		var rerr error
		switch {
		case w == 1 && len(objs) == 0:
			rerr = ErrNotStaged
		case w > 1 && l.unit <= 0:
			rerr = errors.New("no stripe unit")
		default:
			total = fsys.ConsistentTotal(sizes, l.unit)
			fi := fsys.FileInfo{
				Path: path, Size: total, Stripes: 1, StripeUnit: l.unit,
				StripeSet: meta.StripeSet, LayoutGen: meta.LayoutGen,
			}
			rerr = shard.RestoreFile(fi, func(dst io.WriterAt) error {
				return copyStripes(store, staged, l.unit, total, buf, dst)
			})
		}
		if rerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("backing: adopting %s: %w", path, rerr)
			}
			continue
		}
		// Stage the adopted copy back synchronously under the new layout,
		// then retire the stale stripe objects: the backing store never
		// loses its only copy (new object first, stale deletes after).
		// When the copy came out *shorter* than the pre-existing same-key
		// object (a stripe was missing and truncated the file), the old
		// object is deleted first — an overwrite would leave its stale
		// tail under a larger recorded size.
		if prev, ok := rows[rowKey{path, 0}]; ok && prev.Owner == self && prev.Size > total {
			if derr := store.DeleteObject(self, path, 0); derr != nil && firstErr == nil {
				firstErr = derr
			}
		}
		if werr := restage(shard, store, meta, total, buf); werr != nil {
			if firstErr == nil {
				firstErr = werr
			}
			// Fall back to the async path: mark dirty so a pump retries.
			shard.MarkDirty(path, 0, total)
		} else {
			for _, m := range objs {
				if m.Owner == self && m.Stripe == 0 {
					continue // the object just (re)written
				}
				_ = store.DeleteObject(m.Owner, m.Path, m.Stripe)
			}
		}
		adopted++
	}
	return adopted, dropped, firstErr
}
