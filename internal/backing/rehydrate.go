package backing

import (
	"fmt"
	"io"

	"themisio/internal/fsys"
)

// Re-hydration: the stage-in half of the lifecycle. Rehydrate restores a
// server's own staged entries at startup (crash or maintenance restart
// with the same listen address), streaming every byte through one
// segment-sized buffer. A member that does not come back is not restored
// here: its files are moved to the survivors by the rebalance migrator
// (internal/server), which reads the dead member's stripes from their
// staged objects and the living members' stripes live.

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
				if _, err := dst.WriteAt(seg[:n], fsys.FileOff(off, i, len(rows), unit)); err != nil {
					return err
				}
				seg, off = seg[n:], off+n
			}
		}
	}
	return nil
}
