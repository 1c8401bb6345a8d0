package backing

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"themisio/internal/fsys"
)

// interleave is whole-file reassembly on the heap, kept as the reference
// the streamed copy must match: global unit
// u lives on stripe u mod len(parts), and the file stops at the first
// exhausted stripe that was expected to contribute a full unit.
func interleave(parts [][]byte, unit int64) []byte {
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
		take := min(unit, avail)
		out = append(out, parts[i][cursors[i]:cursors[i]+take]...)
		cursors[i] += take
		if take < unit {
			return out
		}
	}
}

// TestCopyStripesMatchesInterleave: over random layouts — width 1–5,
// unit 1 B–64 KiB, stripes torn past the consistent prefix or cut short
// — copying the staged stripes a segment at a time, through a buffer
// that cuts units anywhere, builds exactly what whole-file reassembly
// built, and its length is fsys.ConsistentTotal of the staged sizes.
func TestCopyStripesMatchesInterleave(t *testing.T) {
	store, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for c := 0; c < 150; c++ {
		w := 1 + rng.Intn(5)
		unit := int64(1) << rng.Intn(17)
		if rng.Intn(2) == 0 {
			unit = 1 + rng.Int63n(unit) // between the powers of two too
		}
		path := fmt.Sprintf("/f%d", c)
		total := rng.Int63n(4*int64(w)*unit + 1)
		parts := make([][]byte, w)
		sizes := make([]int64, w)
		staged := make([]FileMeta, w)
		for i := range parts {
			size := fsys.LocalLen(total, i, w, unit)
			switch rng.Intn(5) {
			case 0:
				size += 1 + rng.Int63n(unit) // a torn tail
			case 1:
				size = rng.Int63n(size + 1) // cut short
			}
			parts[i], sizes[i] = make([]byte, size), size
			rng.Read(parts[i])
			staged[i] = FileMeta{Owner: fmt.Sprintf("s%d", i), Path: path, Stripe: i, Stripes: w, StripeUnit: unit, LayoutGen: 1}
			if err := store.WriteRange(staged[i], 0, parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("case %d (width %d, unit %d, sizes %v)", c, w, unit, sizes)
		want := interleave(parts, unit)
		if ct := fsys.ConsistentTotal(sizes, unit); ct != int64(len(want)) {
			t.Fatalf("%s: ConsistentTotal %d, reassembly %d bytes", name, ct, len(want))
		}
		copied := make(sliceWriter, len(want))
		seg := make([]byte, 1+rng.Int63n(2*unit))
		if err := copyStripes(store, staged, unit, int64(len(want)), seg, copied); err != nil || !bytes.Equal(copied, want) {
			t.Fatalf("%s: %d-byte segments copied bytes that differ from the reassembly (err %v)", name, len(seg), err)
		}
	}
}

// sliceWriter is an io.WriterAt over a fixed byte slice.
type sliceWriter []byte

func (w sliceWriter) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(w)) {
		return 0, errors.New("write past the end")
	}
	return copy(w[off:], p), nil
}

// pattern is the byte at file offset o of the heap tests' file: every
// 1 MiB unit differs, so a misplaced unit shows.
func pattern(o int64) byte { return byte(o + 31*(o>>20)) }

// checkPattern reads size bytes of p back a segment at a time.
func checkPattern(t *testing.T, sh *fsys.Shard, p string, size int64) {
	t.Helper()
	buf := make([]byte, segment)
	for off := int64(0); off < size; off += int64(len(buf)) {
		if n, err := sh.ReadAt(p, off, buf); err != nil || n != len(buf) {
			t.Fatalf("read %s at %d: n=%d err=%v", p, off, n, err)
		}
		for i, b := range buf {
			if b != pattern(off+int64(i)) {
				t.Fatalf("%s byte %d = %#x, want %#x", p, off+int64(i), b, pattern(off+int64(i)))
			}
		}
	}
}

// allocated returns the bytes run allocates on the Go heap.
func allocated(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRehydrateHeapBound: a restart's stage-in of a 64 MiB object
// allocates a segment, not the object.
func TestRehydrateHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const size = 64 << 20
	store, _ := OpenDir(t.TempDir())
	meta := FileMeta{Owner: "s1", Path: "/big", Stripes: 1, StripeUnit: 1 << 20, StripeSet: []string{"s1"}, LayoutGen: 3}
	buf := make([]byte, segment)
	for off := int64(0); off < size; off += int64(len(buf)) {
		for i := range buf {
			buf[i] = pattern(off + int64(i))
		}
		if err := store.WriteRange(meta, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	sh := fsys.NewShard("s1", 80<<20)
	var n int
	var err error
	heap := allocated(func() { n, err = Rehydrate(sh, store, "s1") })
	if err != nil || n != 1 {
		t.Fatalf("rehydrated %d, err %v", n, err)
	}
	t.Logf("rehydrate allocated %.1f MiB", float64(heap)/(1<<20))
	if heap >= 8<<20 {
		t.Fatalf("rehydrate allocated %d MiB, want < 8 MiB", heap>>20)
	}
	checkPattern(t, sh, "/big", size)
	if fi, _ := sh.Stat("/big"); fi.LayoutGen != 3 || sh.HasDirty() {
		t.Fatalf("rehydrated entry %+v (dirty %v), want the staged generation, clean", fi, sh.HasDirty())
	}
}
