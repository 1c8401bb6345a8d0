package fsys

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newMigShard builds a shard holding one striped file entry with data.
func newMigShard(t *testing.T, name string, set []string, data []byte) *Shard {
	t.Helper()
	s := NewShard(name, 1<<20)
	if err := s.CreateEntry("/f", false, len(set), 4, set); err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := s.Append("/f", data); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSealFreezesWritesNotReads(t *testing.T) {
	s := newMigShard(t, "a", []string{"a", "b"}, []byte("hello"))
	size, gen, err := s.Seal("/f", 0)
	if err != nil || size != 5 || gen == 0 {
		t.Fatalf("Seal = (%d,%d,%v)", size, gen, err)
	}
	// The generation-checked form refuses a mismatched expectation (a
	// resume pass distinguishing old-layout holders from committed
	// ones) and accepts the matching one.
	if _, _, err := s.Seal("/f", 9); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("gen-mismatched seal err = %v", err)
	}
	if _, _, err := s.Seal("/f", 1); err != nil {
		t.Fatalf("gen-matched seal: %v", err)
	}
	if _, err := s.Append("/f", []byte("x")); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("sealed append err = %v, want ErrStaleLayout", err)
	}
	buf := make([]byte, 5)
	if n, err := s.ReadAt("/f", 0, buf); err != nil || n != 5 {
		t.Fatalf("sealed read: n=%d err=%v", n, err)
	}
	// Idempotent; unseal restores writability.
	if _, _, err := s.Seal("/f", 0); err != nil {
		t.Fatal(err)
	}
	s.Unseal("/f", -1, 0)
	if _, err := s.Append("/f", []byte("x")); err != nil {
		t.Fatalf("unsealed append: %v", err)
	}
}

// An unseal with a keep length removes the torn tail a write racing the
// seal phase left behind (never-acknowledged bytes past the consistent
// prefix), gives its extents back, and restages the trimmed stripe, so
// later appends land at the right round-robin positions.
func TestUnsealTrim(t *testing.T) {
	s := newMigShard(t, "a", []string{"a", "b"}, []byte("acked"))
	if _, err := s.Append("/f", []byte("+torn")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Seal("/f", 0); err != nil {
		t.Fatal(err)
	}
	s.TakeTombstones()
	s.Unseal("/f", 5, 1)
	fi, err := s.Stat("/f")
	if err != nil || fi.Size != 5 || s.Used() != 5 {
		t.Fatalf("trimmed stat = %+v err=%v, store holds %d", fi, err, s.Used())
	}
	buf := make([]byte, 8)
	if n, _ := s.ReadAt("/f", 0, buf); n != 5 || string(buf[:n]) != "acked" {
		t.Fatalf("trimmed content = %q", buf[:n])
	}
	// Unsealed again: appends land after the trimmed prefix.
	if _, err := s.Append("/f", []byte("!")); err != nil {
		t.Fatal(err)
	}
	// The trim tombstoned the stale staged object and re-marked the
	// entry dirty, so the backing store restages from scratch.
	if len(s.TakeTombstones()) != 1 {
		t.Fatal("trim should tombstone the stale staged object")
	}
	if !s.HasDirty() {
		t.Fatal("trimmed entry should be fully dirty")
	}
	// keep >= size is a plain unseal: no trim, no tombstone.
	s2 := newMigShard(t, "a", []string{"a"}, []byte("xyz"))
	if _, _, err := s2.Seal("/f", 0); err != nil {
		t.Fatal(err)
	}
	s2.Unseal("/f", 3, 0)
	if fi, _ := s2.Stat("/f"); fi.Size != 3 {
		t.Fatalf("no-op trim changed size to %d", fi.Size)
	}
	if len(s2.TakeTombstones()) != 0 {
		t.Fatal("no-op trim must not tombstone")
	}
}

// installAll streams data into p's pending entry at layoutGen in chunks
// of chunk bytes, last chunk first, so all but one park.
func installAll(t *testing.T, s *Shard, p string, data []byte, chunk int, layoutGen uint64) {
	t.Helper()
	for off := (len(data) - 1) / chunk * chunk; off >= 0; off -= chunk {
		if _, err := s.Install(p, int64(off), data[off:min(off+chunk, len(data))], nil, layoutGen); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInstallCommit(t *testing.T) {
	s := NewShard("b", 1<<20)
	if _, err := s.Install("/g", -1, []byte("x"), nil, 7); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative offset err = %v", err)
	}
	installAll(t, s, "/g", []byte("abcdefgh"), 4, 7)
	// A chunk that straddles the landed size is torn; a duplicate acks.
	if _, err := s.Install("/g", 6, []byte("ghXY"), nil, 7); !errors.Is(err, ErrTornAppend) {
		t.Fatalf("torn chunk err = %v", err)
	}
	if _, err := s.Install("/g", 0, []byte("abcd"), nil, 7); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	// Pending is invisible until commit.
	if _, err := s.Stat("/g"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("pending entry visible: %v", err)
	}
	// A commit that expects more bytes than landed is refused.
	layout := FileInfo{Path: "/g", Size: 9, Stripes: 2, StripeUnit: 4, StripeSet: []string{"b", "c"}, LayoutGen: 7}
	if err := s.MigrateCommit(layout, 0); err == nil {
		t.Fatal("commit of a short pending entry should be refused")
	}
	layout.Size = 8
	if err := s.MigrateCommit(layout, 0); err != nil {
		t.Fatal(err)
	}
	fi, err := s.Stat("/g")
	if err != nil || fi.Size != 8 || fi.LayoutGen != 7 || fi.Stripes != 2 {
		t.Fatalf("committed stat = %+v err=%v", fi, err)
	}
	buf := make([]byte, 8)
	if n, _ := s.ReadAt("/g", 0, buf); n != 8 || !bytes.Equal(buf, []byte("abcdefgh")) {
		t.Fatalf("committed content = %q", buf[:n])
	}
	// The committed entry is fully dirty: it must restage under the new
	// layout.
	if !s.HasDirty() {
		t.Fatal("committed entry should be dirty")
	}
	// A zero-length stripe commits with no pending entry at all.
	if err := s.MigrateCommit(FileInfo{Path: "/e", Stripes: 2, StripeUnit: 4, StripeSet: []string{"b", "c"}, LayoutGen: 7}, 0); err != nil {
		t.Fatal(err)
	}
	if fi, err := s.Stat("/e"); err != nil || fi.Size != 0 || fi.LayoutGen != 7 {
		t.Fatalf("empty committed stat = %+v err=%v", fi, err)
	}
}

func TestMigrateCommitReplacesOldStripe(t *testing.T) {
	s := newMigShard(t, "a", []string{"a", "b"}, []byte("oldbytes"))
	installAll(t, s, "/f", []byte("new"), 4, 3)
	s.TakeTombstones()
	if err := s.MigrateCommit(FileInfo{Path: "/f", Size: 3, Stripes: 1, StripeUnit: 4, StripeSet: []string{"a"}, LayoutGen: 3}, 0); err != nil {
		t.Fatal(err)
	}
	fi, err := s.Stat("/f")
	if err != nil || fi.Size != 3 || fi.LayoutGen != 3 || len(fi.StripeSet) != 1 || s.Used() != 3 {
		t.Fatalf("replaced stat = %+v err=%v, store holds %d", fi, err, s.Used())
	}
	if ts := s.TakeTombstones(); len(ts) != 1 || ts[0].Stripe != 0 {
		t.Fatalf("tombstones = %+v, want the replaced stripe's", ts)
	}
}

// A commit is idempotent by layout generation: the migrator re-sends it
// when a reply is lost on a torn connection, and the duplicate must
// neither fabricate an empty stripe nor disturb the installed one.
func TestMigrateCommitIdempotent(t *testing.T) {
	s := NewShard("b", 1<<20)
	installAll(t, s, "/g", []byte("payload"), 4, 5)
	layout := FileInfo{Path: "/g", Size: 7, Stripes: 1, StripeUnit: 4, StripeSet: []string{"b"}, LayoutGen: 5}
	if err := s.MigrateCommit(layout, 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery: no pending entry left, entry already at the
	// generation — must succeed without touching the content.
	if err := s.MigrateCommit(layout, 0); err != nil {
		t.Fatalf("duplicate commit: %v", err)
	}
	fi, err := s.Stat("/g")
	if err != nil || fi.Size != 7 {
		t.Fatalf("content after duplicate commit: %+v err=%v", fi, err)
	}
	// A bare commit (no pending, different generation) is refused: it
	// could only destroy bytes the first delivery landed.
	layout.LayoutGen = 9
	if err := s.MigrateCommit(layout, 0); err == nil {
		t.Fatal("commit with no pending install should be refused")
	}
}

// Committing a moved stripe swaps the pending entry in under the lock:
// the store already holds its bytes, so the commit allocates nothing of
// their size and copies none of them.
func TestCommitIsASwap(t *testing.T) {
	const size = 32 << 20
	s := NewShard("b", 64<<20)
	if err := s.CreateEntry("/f", false, 2, 1<<20, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/f", []byte("old stripe")); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	installAll(t, s, "/f", data, 1<<20, 2)
	used := s.Used()
	layout := FileInfo{Path: "/f", Size: size, Stripes: 2, StripeUnit: 1 << 20, StripeSet: []string{"b", "c"}, LayoutGen: 2}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := s.MigrateCommit(layout, 0); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	t.Logf("committed a %d MiB stripe in %v", size>>20, took)
	if got := s.Used(); got != used-int64(len("old stripe")) {
		t.Fatalf("store holds %d after the commit, want %d (the pending bytes, less the replaced stripe)", got, used-int64(len("old stripe")))
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("the commit allocated %d bytes", alloc)
	}
	got := make([]byte, size)
	if n, err := s.ReadAt("/f", 0, got); err != nil || n != size || !bytes.Equal(got, data) {
		t.Fatalf("committed read: n=%d err=%v equal=%v", n, err, bytes.Equal(got, data))
	}
}

// Aborting or sweeping a pending entry gives back every byte it held,
// parked chunks included.
func TestPendingReleased(t *testing.T) {
	s := newMigShard(t, "b", []string{"b"}, []byte("live"))
	used := s.Used()
	installAll(t, s, "/g", make([]byte, 10), 4, 2)
	if _, err := s.Install("/g", 20, []byte("parked"), nil, 2); err != nil {
		t.Fatal(err)
	}
	if s.Used() != used+10 {
		t.Fatalf("store holds %d during the install, want %d", s.Used(), used+10)
	}
	s.MigrateAbort("/g")
	if s.Used() != used {
		t.Fatalf("store holds %d after the abort, want %d", s.Used(), used)
	}
	// An install for another generation replaces the entry.
	installAll(t, s, "/g", make([]byte, 10), 4, 2)
	installAll(t, s, "/g", make([]byte, 3), 4, 3)
	if s.Used() != used+3 {
		t.Fatalf("store holds %d after a newer generation's install, want %d", s.Used(), used+3)
	}
	s.SweepMoved(time.Hour)
	if s.Used() != used+3 {
		t.Fatal("the sweep released a live pending entry")
	}
	s.SweepMoved(0)
	if s.Used() != used {
		t.Fatalf("store holds %d after the sweep, want %d", s.Used(), used)
	}
	if err := s.MigrateCommit(FileInfo{Path: "/g", Size: 3, Stripes: 1, StripeSet: []string{"b"}, LayoutGen: 3}, 0); err == nil {
		t.Fatal("a swept entry committed")
	}
}

// A stripe whose holder and index both survive commits in place: the
// torn tail past its share of the consistent prefix is cut (and its
// staged object tombstoned), the entry takes the new layout and is
// unsealed. A re-sent commit changes nothing.
func TestRelabelCommit(t *testing.T) {
	s := newMigShard(t, "a", []string{"a", "b"}, []byte("kept"))
	if _, err := s.Append("/f", []byte("torn")); err != nil {
		t.Fatal(err)
	}
	_, gen, err := s.Seal("/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.TakeTombstones()
	layout := FileInfo{Path: "/f", Size: 4, Stripes: 2, StripeUnit: 4, StripeSet: []string{"a", "c"}, LayoutGen: 2}
	if err := s.MigrateCommit(layout, gen+1); err == nil {
		t.Fatal("a re-label of another incarnation committed")
	}
	if err := s.MigrateCommit(layout, gen); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		fi, err := s.Stat("/f")
		if err != nil || fi.Size != 4 || fi.LayoutGen != 2 || fi.StripeSet[1] != "c" || s.GenOf("/f") != gen || s.Used() != 4 {
			t.Fatalf("%s: stat %+v err %v gen %d, store holds %d", when, fi, err, s.GenOf("/f"), s.Used())
		}
		buf := make([]byte, 8)
		if n, _ := s.ReadAt("/f", 0, buf); string(buf[:n]) != "kept" {
			t.Fatalf("%s: content %q", when, buf[:n])
		}
	}
	check("re-labelled")
	if ts := s.TakeTombstones(); len(ts) != 1 {
		t.Fatalf("tombstones = %+v, want the trimmed object's", ts)
	}
	if err := s.MigrateCommit(layout, gen); err != nil {
		t.Fatalf("re-sent commit: %v", err)
	}
	check("after a re-sent commit")
	if ts := s.TakeTombstones(); len(ts) != 0 {
		t.Fatalf("a re-sent commit tombstoned %+v", ts)
	}
	if _, err := s.AppendGen("/f", []byte("!"), nil, 2); err != nil {
		t.Fatalf("append after the commit: %v", err)
	}
	// A late release of the old layout's seal leaves the committed entry,
	// and the byte just acknowledged in it, alone.
	s.Unseal("/f", 4, 1)
	if fi, _ := s.Stat("/f"); fi.Size != 5 {
		t.Fatalf("a release under the old layout trimmed the committed stripe to %d", fi.Size)
	}
}

func TestMigrateDropGenChecked(t *testing.T) {
	s := newMigShard(t, "a", []string{"a", "b"}, []byte("data"))
	gen := s.GenOf("/f")
	to := FileInfo{Stripes: 2, StripeUnit: 4, StripeSet: []string{"b", "c"}, LayoutGen: 2}
	// A recreate bumps the generation; the stale drop must be a no-op.
	if s.MigrateDrop("/f", gen+99, to) {
		t.Fatal("gen-mismatched drop should refuse")
	}
	if !s.MigrateDrop("/f", gen, to) {
		t.Fatal("matching drop should land")
	}
	// Dropped paths answer stale-layout, not not-exist, a stat names the
	// layout the file went to, and the drop tombstones the staged object.
	forwards := func() {
		t.Helper()
		fi, err := s.StatGen("/f", 1)
		if !errors.Is(err, ErrStaleLayout) || fi.Path != "/f" || fi.Stripes != 2 || fi.StripeUnit != 4 ||
			fi.LayoutGen != 2 || strings.Join(fi.StripeSet, ",") != "b,c" {
			t.Fatalf("moved stat = %+v, %v; want stale-layout forwarding to %+v", fi, err, to)
		}
	}
	forwards()
	if _, err := s.Append("/f", []byte("x")); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("moved append err = %v", err)
	}
	if _, err := s.ReadAt("/f", 0, make([]byte, 1)); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("moved read err = %v", err)
	}
	ts := s.TakeTombstones()
	if len(ts) != 1 || ts[0].Path != "/f" {
		t.Fatalf("tombstones = %+v", ts)
	}
	// A fresh incarnation supersedes the moved marker.
	if err := s.CreateEntry("/f", false, 1, 4, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if fi, err := s.StatGen("/f", 1); err != nil || fi.Stripes != 1 || fi.LayoutGen != 1 {
		t.Fatalf("stat of the recreated entry = %+v, %v; want it, not the forward", fi, err)
	}
	// The sweep keeps a marker inside the retention and drops it past.
	if !s.MigrateDrop("/f", s.GenOf("/f"), to) {
		t.Fatal("drop of the recreated entry refused")
	}
	s.SweepMoved(time.Hour)
	forwards()
	s.SweepMoved(0)
	if fi, err := s.StatGen("/f", 1); !errors.Is(err, ErrNotExist) || fi.LayoutGen != 0 || fi.StripeSet != nil {
		t.Fatalf("stat after the sweep = %+v, %v; want not-exist and no forward", fi, err)
	}
}

// The layout-generation checks live inside the data ops' own critical
// sections: a separate check-then-operate could race a migration
// commit swapping the entry between the two.
func TestGenCheckedOps(t *testing.T) {
	s := newMigShard(t, "a", []string{"a"}, []byte("abc"))
	if _, err := s.AppendGen("/f", []byte("d"), nil, 0); err != nil {
		t.Fatalf("zero gen must be unchecked: %v", err)
	}
	if _, err := s.AppendGen("/f", []byte("e"), nil, 1); err != nil {
		t.Fatalf("matching gen append: %v", err)
	}
	if _, err := s.AppendGen("/f", []byte("x"), nil, 9); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("mismatched gen append err = %v", err)
	}
	buf := make([]byte, 8)
	if _, err := s.ReadAtGen("/f", 0, buf, 9); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("mismatched gen read err = %v", err)
	}
	if n, err := s.ReadAtGen("/f", 0, buf, 1); err != nil || string(buf[:n]) != "abcde" {
		t.Fatalf("gen read = %q err=%v", buf[:n], err)
	}
	if _, err := s.StatGen("/f", 9); !errors.Is(err, ErrStaleLayout) {
		t.Fatalf("mismatched gen stat err = %v", err)
	}
	if fi, err := s.StatGen("/f", 1); err != nil || fi.Size != 5 {
		t.Fatalf("gen stat = %+v err=%v", fi, err)
	}
}
