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

// interleave is whole-file reassembly as recovery once did it on the
// heap, kept as the reference streamed adoption must match: global unit
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

// TestAdoptionMatchesInterleave: over random layouts — width 1–5, unit
// 1 B–64 KiB, stripes missing their row, torn past the consistent prefix
// or cut short — the streamed adoption holds exactly what whole-file
// reassembly built, its length is fsys.ConsistentTotal of the staged
// sizes, the restaged object holds the same bytes, and no stale row is
// left.
func TestAdoptionMatchesInterleave(t *testing.T) {
	store, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	ownerOf := func(string) (string, bool) { return "a", true }
	for c := 0; c < 150; c++ {
		w := 1 + rng.Intn(5)
		unit := int64(1) << rng.Intn(17)
		if rng.Intn(2) == 0 {
			unit = 1 + rng.Int63n(unit) // between the powers of two too
		}
		set := make([]string, w)
		for i := range set {
			set[i] = fmt.Sprintf("s%d", i)
		}
		path := fmt.Sprintf("/f%d", c)
		total := rng.Int63n(4*int64(w)*unit + 1)
		parts := make([][]byte, w)
		sizes := make([]int64, w)
		staged := make([]FileMeta, w)
		rows := 0
		for i := range parts {
			size := fsys.LocalLen(total, i, w, unit)
			switch rng.Intn(6) {
			case 0:
				continue // no row
			case 1:
				size += 1 + rng.Int63n(unit) // a torn tail
			case 2:
				size = rng.Int63n(size + 1) // cut short
			}
			parts[i], sizes[i] = make([]byte, size), size
			rng.Read(parts[i])
			meta := FileMeta{Owner: set[i], Path: path, Stripe: i, Stripes: w, StripeUnit: unit, StripeSet: set, LayoutGen: 1}
			if err := store.WriteRange(meta, 0, parts[i]); err != nil {
				t.Fatal(err)
			}
			staged[i] = meta
			rows++
		}
		if rows == 0 {
			continue // nothing staged, nothing to adopt
		}
		name := fmt.Sprintf("case %d (width %d, unit %d, sizes %v)", c, w, unit, sizes)
		want := interleave(parts, unit)
		if ct := fsys.ConsistentTotal(sizes, unit); ct != int64(len(want)) {
			t.Fatalf("%s: ConsistentTotal %d, reassembly %d bytes", name, ct, len(want))
		}
		// The copy alone, through a buffer that cuts units anywhere.
		copied := make(sliceWriter, len(want))
		seg := make([]byte, 1+rng.Int63n(2*unit))
		if err := copyStripes(store, staged, unit, int64(len(want)), seg, copied); err != nil || !bytes.Equal(copied, want) {
			t.Fatalf("%s: %d-byte segments copied bytes that differ from the reassembly (err %v)", name, len(seg), err)
		}
		sh := fsys.NewShard("a", 4<<20)
		adopted, _, err := RecoverSegment(sh, store, "a", set, ownerOf)
		if err != nil || adopted != 1 {
			t.Fatalf("%s: adopted %d, err %v", name, adopted, err)
		}
		fi, err := sh.Stat(path)
		if err != nil || fi.Size != int64(len(want)) || fi.Stripes != 1 {
			t.Fatalf("%s: adopted entry %+v err %v, want %d bytes", name, fi, err, len(want))
		}
		got := make([]byte, len(want))
		if _, err := sh.ReadAt(path, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: adopted bytes differ from the reassembly (err %v)", name, err)
		}
		obj, _, err := readStaged(store, "a", path, 0)
		if err != nil || !bytes.Equal(obj, want) {
			t.Fatalf("%s: restaged object differs from the reassembly (err %v)", name, err)
		}
		manifest, _ := store.Manifest()
		for _, m := range manifest {
			if m.Path == path && m.Owner != "a" {
				t.Fatalf("%s: stale row left: %+v", name, m)
			}
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

// flakyStore fails one read of one stripe's objects, once.
type flakyStore struct {
	Store
	stripe int
	armed  bool
}

func (f *flakyStore) ReadRange(meta FileMeta, off int64, buf []byte) (int, error) {
	if f.armed && meta.Stripe == f.stripe {
		f.armed = false
		return 0, errors.New("transient read error")
	}
	return f.Store.ReadRange(meta, off, buf)
}

// TestRecoverSegmentReadErrorKeepsObjects: a stripe that fails to read
// is not a missing stripe. The pass fails for that path and changes
// nothing — the adopter's local stripe and every staged object stay —
// and the next pass adopts the whole file.
func TestRecoverSegmentReadErrorKeepsObjects(t *testing.T) {
	base, _ := OpenDir(t.TempDir())
	full := []byte("AAAABBBBCCCCDDDDEE") // units: A->0 B->1 C->2 D->0 E->1
	set := []string{"s0", "s1", "s2"}
	parts := []string{"AAAADDDD", "BBBBEE", "CCCC"}
	shards := make([]*fsys.Shard, 3)
	for i, name := range set {
		shards[i] = fsys.NewShard(name, 1<<20)
		if err := shards[i].CreateEntry("/f", false, 3, 4, set); err != nil {
			t.Fatal(err)
		}
		if _, err := shards[i].Append("/f", []byte(parts[i])); err != nil {
			t.Fatal(err)
		}
		pumpAll(t, NewDrainer(name, shards[i], base))
	}
	store := &flakyStore{Store: base, stripe: 1, armed: true}
	ownerOf := func(string) (string, bool) { return "s0", true }
	adopted, _, err := RecoverSegment(shards[0], store, "s0", []string{"s2"}, ownerOf)
	if err == nil || adopted != 0 {
		t.Fatalf("first pass: adopted %d, err %v; want the read error and nothing adopted", adopted, err)
	}
	if fi, err := shards[0].Stat("/f"); err != nil || fi.Stripes != 3 || fi.Size != 8 {
		t.Fatalf("a failed pass changed the local stripe: %+v err %v", fi, err)
	}
	for i, want := range parts {
		if data, _, err := readStaged(base, set[i], "/f", i); err != nil || string(data) != want {
			t.Fatalf("a failed pass changed stripe %d's object: %q err %v, want %q", i, data, err, want)
		}
	}
	if adopted, _, err = RecoverSegment(shards[0], store, "s0", []string{"s2"}, ownerOf); err != nil || adopted != 1 {
		t.Fatalf("retry: adopted %d, err %v", adopted, err)
	}
	got := make([]byte, len(full)+1)
	if n, err := shards[0].ReadAt("/f", 0, got); err != nil || !bytes.Equal(got[:n], full) {
		t.Fatalf("retry adopted %q err %v, want %q", got[:n], err, full)
	}
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

// TestAdoptionHeapBound: adopting a staged 64 MiB width-3 file whose
// adopter holds its own stripe un-staged allocates a few segments, not
// the file (whole-file reassembly allocated 422 MiB here).
func TestAdoptionHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const size, unit = 64 << 20, 1 << 20
	store, _ := OpenDir(t.TempDir())
	set := []string{"s0", "s1", "s2"}
	s0 := fsys.NewShard("s0", 128<<20)
	if err := s0.CreateEntry("/f", false, 3, unit, set); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, unit)
	for u := int64(0); u*unit < size; u++ {
		for i := range buf {
			buf[i] = pattern(u*unit + int64(i))
		}
		if i := int(u % 3); i == 0 {
			if _, err := s0.Append("/f", buf); err != nil {
				t.Fatal(err)
			}
		} else {
			meta := FileMeta{Owner: set[i], Path: "/f", Stripe: i, Stripes: 3, StripeUnit: unit, StripeSet: set, LayoutGen: 1}
			if err := store.WriteRange(meta, u/3*unit, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	ownerOf := func(string) (string, bool) { return "s0", true }
	var adopted int
	var err error
	heap := allocated(func() { adopted, _, err = RecoverSegment(s0, store, "s0", []string{"s2"}, ownerOf) })
	if err != nil || adopted != 1 {
		t.Fatalf("adopted %d, err %v", adopted, err)
	}
	t.Logf("adoption allocated %.1f MiB", float64(heap)/(1<<20))
	if heap >= 16<<20 {
		t.Fatalf("adoption allocated %d MiB, want < 16 MiB", heap>>20)
	}
	checkPattern(t, s0, "/f", size)
	if _, m, err := readStaged(store, "s0", "/f", 0); err != nil || m.Size != size {
		t.Fatalf("restaged row %+v err %v", m, err)
	}
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
