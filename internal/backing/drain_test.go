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
