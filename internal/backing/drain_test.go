package backing

import (
	"bytes"
	"testing"
	"time"

	"themisio/internal/fsys"
	"themisio/internal/sched"
)

// runAll executes submitted drain tasks inline — a stand-in for the
// server's workers in unit tests.
func runAll(t *testing.T, reqs []*sched.Request) {
	t.Helper()
	for _, r := range reqs {
		if err := r.Tag.(*Task).Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func pumpAll(t *testing.T, d *Drainer) int {
	t.Helper()
	total := 0
	for {
		var reqs []*sched.Request
		n := d.Pump(0, func(r *sched.Request) { reqs = append(reqs, r) })
		if n == 0 {
			return total
		}
		runAll(t, reqs)
		total += n
	}
}

func TestDrainAndRehydrate(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	sh := fsys.NewShard("s1", 8<<20)
	if err := sh.Mkdir("/ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.CreateStriped("/ckpt/a", 1, 1<<16, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("durable!"), 40000) // 320 KB, several chunks
	if _, err := sh.Append("/ckpt/a", want); err != nil {
		t.Fatal(err)
	}

	d := NewDrainer("s1", sh, store)
	d.ChunkBytes = 64 << 10
	if n := pumpAll(t, d); n == 0 {
		t.Fatal("nothing pumped despite dirty data")
	}
	if d.Dirty() {
		t.Fatal("still dirty after full drain")
	}
	chunks, bytesOut, errs := d.Stats()
	if chunks == 0 || bytesOut != int64(len(want)) || errs != 0 {
		t.Fatalf("stats: chunks=%d bytes=%d errs=%d", chunks, bytesOut, errs)
	}

	// Incremental: another write stages only the delta.
	if _, err := sh.Append("/ckpt/a", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	pumpAll(t, d)
	_, bytesOut2, _ := d.Stats()
	if delta := bytesOut2 - bytesOut; delta != 4 {
		t.Fatalf("incremental drain moved %d bytes, want 4", delta)
	}

	// Crash: rebuild the shard from the backing store alone.
	sh2 := fsys.NewShard("s1", 8<<20)
	n, err := Rehydrate(sh2, store, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing rehydrated")
	}
	got := make([]byte, len(want)+4)
	if m, err := sh2.ReadAt("/ckpt/a", 0, got); err != nil || m != len(got) {
		t.Fatalf("rehydrated read: n=%d err=%v", m, err)
	}
	if !bytes.Equal(got, append(append([]byte{}, want...), []byte("tail")...)) {
		t.Fatal("rehydrated content differs")
	}
	if names, err := sh2.Readdir("/ckpt"); err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("rehydrated readdir: %v %v", names, err)
	}
	if sh2.HasDirty() {
		t.Fatal("rehydrated shard should start clean")
	}

	// Unlink propagates as a backing delete.
	if _, err := sh.Unlink("/ckpt/a"); err != nil {
		t.Fatal(err)
	}
	pumpAll(t, d)
	if _, _, err := readStaged(store, "", "/ckpt/a", 0); err == nil {
		t.Fatal("object should be deleted after unlink drain")
	}
}

func TestFlushTimeoutAndSuccess(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	sh := fsys.NewShard("s1", 1<<20)
	if _, err := sh.CreateStriped("/f", 1, 1<<16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append("/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	d := NewDrainer("s1", sh, store)
	// A push sink that executes tasks inline: flush succeeds.
	now := func() time.Duration { return 0 }
	err := d.Flush(now, func(rq *sched.Request) {
		_ = rq.Tag.(*Task).Run()
	}, func(int) {}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A sink that drops tasks on the floor: flush times out.
	if _, err := sh.Append("/f", []byte("more")); err != nil {
		t.Fatal(err)
	}
	err = d.Flush(now, func(rq *sched.Request) {}, func(int) {}, 20*time.Millisecond)
	if err == nil {
		t.Fatal("flush with a dead sink should time out")
	}
}

// TestRecoverSegmentKeepsUnstagedLocalBytes: recovery must stage a
// survivor's un-staged dirty bytes before reassembling, so acknowledged
// writes on healthy servers never regress to the last flush.
func TestRecoverSegmentKeepsUnstagedLocalBytes(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	// /f striped over [s1, s2], unit 4: units A,C on s1; B,D on s2.
	set := []string{"s1", "s2"}
	s1 := fsys.NewShard("s1", 1<<20)
	s2 := fsys.NewShard("s2", 1<<20)
	for _, sh := range []*fsys.Shard{s1, s2} {
		if err := sh.CreateEntry("/f", false, 2, 4, set); err != nil {
			t.Fatal(err)
		}
	}
	s1.Append("/f", []byte("AAAACCCC"))
	s2.Append("/f", []byte("BBBBDDDD"))
	pumpAll(t, NewDrainer("s1", s1, store))
	pumpAll(t, NewDrainer("s2", s2, store))
	// A further acknowledged append lands unit E on s1 — never staged.
	if _, err := s1.Append("/f", []byte("EEEE")); err != nil {
		t.Fatal(err)
	}
	// s2 dies; s1 is the new ring owner and adopts.
	ownerOf := func(string) (string, bool) { return "s1", true }
	if _, _, err := RecoverSegment(s1, store, "s1", []string{"s2"}, ownerOf); err != nil {
		t.Fatal(err)
	}
	want := "AAAABBBBCCCCDDDDEEEE"
	got := make([]byte, len(want))
	if n, err := s1.ReadAt("/f", 0, got); err != nil || n != len(want) {
		t.Fatalf("adopted read: n=%d err=%v", n, err)
	}
	if string(got) != want {
		t.Fatalf("adopted %q, want %q (un-staged tail lost)", got, want)
	}
	if data, _, err := readStaged(store, "", "/f", 0); err != nil || string(data) != want {
		t.Fatalf("restaged object %q err=%v, want %q", data, err, want)
	}
}

// TestRecoverSegmentTruncatesShrunkObject: when reassembly comes out
// shorter than a pre-existing same-key object (a stripe was never
// staged), the restage must not leave the old object's stale tail under
// a larger recorded size.
func TestRecoverSegmentTruncatesShrunkObject(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	set := []string{"s1", "s2"}
	s1 := fsys.NewShard("s1", 1<<20)
	if err := s1.CreateEntry("/f", false, 2, 4, set); err != nil {
		t.Fatal(err)
	}
	s1.Append("/f", []byte("AAAACCCC"))
	pumpAll(t, NewDrainer("s1", s1, store))
	// s2's stripe (units B, D) was never staged; s2 dies.
	ownerOf := func(string) (string, bool) { return "s1", true }
	if _, _, err := RecoverSegment(s1, store, "s1", []string{"s2"}, ownerOf); err != nil {
		t.Fatal(err)
	}
	// The file truncates at the gap: only unit A survives.
	data, meta, err := readStaged(store, "", "/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "AAAA" || meta.Size != 4 {
		t.Fatalf("restaged object %q size %d, want %q size 4 (stale tail kept)", data, meta.Size, "AAAA")
	}
	// And a fresh rehydrate sees the clean truncation, not garbage.
	fresh := fsys.NewShard("s1", 1<<20)
	if _, err := Rehydrate(fresh, store, "s1"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	n, err := fresh.ReadAt("/f", 0, got)
	if err != nil || n != 4 || string(got[:n]) != "AAAA" {
		t.Fatalf("rehydrated read: %q n=%d err=%v", got[:n], n, err)
	}
}

// TestRecoverSegmentAdoptsNeverStagedFile: a file with no backing rows
// at all (written, never pumped) must still be adopted by its new
// owner: the owner's own stripes are staged during recovery and the
// reachable prefix is re-laid-out off the dead member, instead of
// leaving a layout that names the dead server forever.
func TestRecoverSegmentAdoptsNeverStagedFile(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	set := []string{"s1", "s2"}
	s1 := fsys.NewShard("s1", 1<<20)
	if err := s1.CreateEntry("/f", false, 2, 4, set); err != nil {
		t.Fatal(err)
	}
	s1.Append("/f", []byte("AAAACCCC")) // units A, C; s2 held B, D and died unstaged
	ownerOf := func(string) (string, bool) { return "s1", true }
	adopted, _, err := RecoverSegment(s1, store, "s1", []string{"s2"}, ownerOf)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 1 {
		t.Fatalf("adopted = %d, want 1 (never-staged file skipped)", adopted)
	}
	fi, err := s1.Stat("/f")
	if err != nil || fi.Stripes != 1 || len(fi.StripeSet) != 1 || fi.StripeSet[0] != "s1" {
		t.Fatalf("layout still names the dead member: %+v err=%v", fi, err)
	}
	// The reachable prefix (unit A, truncated at s2's missing unit B).
	got := make([]byte, 8)
	n, err := s1.ReadAt("/f", 0, got)
	if err != nil || n != 4 || string(got[:n]) != "AAAA" {
		t.Fatalf("adopted prefix: %q n=%d err=%v", got[:n], n, err)
	}
	if data, _, err := readStaged(store, "s1", "/f", 0); err != nil || string(data) != "AAAA" {
		t.Fatalf("restaged object: %q err=%v", data, err)
	}
}

func TestRecoverSegment(t *testing.T) {
	store, _ := OpenDir(t.TempDir())
	// Three servers each hold a stripe of /f (unit 4, width 3) and have
	// fully staged out. s2 dies; s0 is the new ring owner of /f.
	full := []byte("AAAABBBBCCCCDDDDEE") // units: A->0 B->1 C->2 D->0 E->1
	set := []string{"s0", "s1", "s2"}
	parts := [][]byte{
		append(append([]byte{}, full[0:4]...), full[12:16]...), // s0: A,D
		append(append([]byte{}, full[4:8]...), full[16:18]...), // s1: B,E
		full[8:12], // s2: C
	}
	shards := make([]*fsys.Shard, 3)
	for i, name := range set {
		shards[i] = fsys.NewShard(name, 1<<20)
		if err := shards[i].CreateEntry("/f", false, 3, 4, set); err != nil {
			t.Fatal(err)
		}
		if _, err := shards[i].Append("/f", parts[i]); err != nil {
			t.Fatal(err)
		}
		pumpAll(t, NewDrainer(name, shards[i], store))
	}

	ownerOf := func(path string) (string, bool) { return "s0", true }
	adopted, _, err := RecoverSegment(shards[0], store, "s0", []string{"s2"}, ownerOf)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 1 {
		t.Fatalf("adopted = %d, want 1", adopted)
	}
	// s0 now serves the full content under the new layout.
	got := make([]byte, len(full))
	if n, err := shards[0].ReadAt("/f", 0, got); err != nil || n != len(full) {
		t.Fatalf("adopted read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("adopted content %q, want %q", got, full)
	}
	fi, err := shards[0].Stat("/f")
	if err != nil || fi.Stripes != 1 || len(fi.StripeSet) != 1 || fi.StripeSet[0] != "s0" {
		t.Fatalf("adopted layout: %+v err=%v", fi, err)
	}
	// s1's stale stripe is dropped by its own recovery pass.
	if _, _, err := RecoverSegment(shards[1], store, "s1", []string{"s2"}, ownerOf); err != nil {
		t.Fatal(err)
	}
	if shards[1].Exists("/f") {
		t.Fatal("s1 should have dropped its stale stripe")
	}
	// The backing store converged on the new layout: exactly one object
	// remains for /f, owned by s0, holding the full bytes.
	data, m, err := readStaged(store, "", "/f", 0)
	if err != nil || !bytes.Equal(data, full) {
		t.Fatalf("backing after recovery: %q err=%v", data, err)
	}
	if m.Owner != "s0" || m.Stripes != 1 {
		t.Fatalf("backing meta after recovery: %+v", m)
	}
	if _, _, err := readStaged(store, "", "/f", 1); err == nil {
		t.Fatal("stale stripe 1 object should be deleted")
	}
	if _, _, err := readStaged(store, "", "/f", 2); err == nil {
		t.Fatal("stale stripe 2 object should be deleted")
	}
}
