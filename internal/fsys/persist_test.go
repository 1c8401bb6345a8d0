package fsys

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	sh := NewShard("bb0", 8<<20)
	if err := sh.Mkdir("/ckpt"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	files := map[string][]byte{}
	for _, name := range []string{"/ckpt/a", "/ckpt/b", "/top"} {
		if err := create(sh, name); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, rng.Intn(200000)+1)
		rng.Read(data)
		if _, err := sh.Append(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}

	var buf bytes.Buffer
	if err := sh.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreShard(&buf, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "bb0" {
		t.Fatalf("restored name = %q", restored.Name())
	}
	for name, want := range files {
		got := make([]byte, len(want))
		n, err := restored.ReadAt(name, 0, got)
		if err != nil || n != len(want) {
			t.Fatalf("restored read %s: n=%d err=%v", name, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored contents of %s differ", name)
		}
	}
	names, err := restored.Readdir("/ckpt")
	if err != nil || len(names) != 2 {
		t.Fatalf("restored readdir: %v %v", names, err)
	}
	// The restored shard keeps working: new writes land fine.
	if err := create(restored, "/after-restore"); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Append("/after-restore", []byte("new data")); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreShard(bytes.NewReader([]byte("not a snapshot")), 1<<20); err == nil {
		t.Fatal("garbage input should fail")
	}
	// Wrong magic via a valid gob stream of the wrong shape.
	var buf bytes.Buffer
	sh := NewShard("x", 1<<20)
	if err := sh.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff // corrupt mid-stream
	if _, err := RestoreShard(bytes.NewReader(raw), 1<<20); err == nil {
		t.Skip("corruption landed in padding; acceptable")
	}
}

// TestSnapshotUnderConcurrentWriters: a snapshot taken while writers
// keep appending is internally consistent — every restored file holds a
// prefix of the deterministic pattern its writer produces, and the
// restored shard is fully functional. (Snapshot holds the namespace
// read-lock; appends to existing files proceed concurrently, so the
// snapshot must tolerate indexes growing under it.)
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	sh := NewShard("bb0", 64<<20)
	const writers = 4
	paths := make([]string, writers)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w%d", i)
		if err := create(sh, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	// pattern byte at offset o of writer i is deterministic, so any
	// prefix is verifiable without coordination.
	pat := func(i int, o int64) byte { return byte(int64(i+1)*31 + o*7) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var off int64
			block := make([]byte, 1024)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for b := range block {
					block[b] = pat(i, off+int64(b))
				}
				if _, err := sh.Append(paths[i], block); err != nil {
					return // device full: writer retires
				}
				off += int64(len(block))
			}
		}(i)
	}
	for round := 0; round < 5; round++ {
		var buf bytes.Buffer
		if err := sh.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreShard(&buf, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			fi, err := restored.Stat(p)
			if err != nil {
				t.Fatalf("round %d: stat %s: %v", round, p, err)
			}
			got := make([]byte, fi.Size)
			if n, err := restored.ReadAt(p, 0, got); err != nil || int64(n) != fi.Size {
				t.Fatalf("round %d: read %s: n=%d err=%v", round, p, n, err)
			}
			for o, b := range got {
				if b != pat(i, int64(o)) {
					t.Fatalf("round %d: %s byte %d = %#x, want %#x (torn snapshot)",
						round, p, o, b, pat(i, int64(o)))
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotV1Compatibility pins the on-disk contract: a version-1
// snapshot stream (the format every release so far has written) must
// keep restoring even as the current writer moves on. The fixture is
// encoded by hand so a change to the writer cannot silently rewrite the
// fixture too.
func TestSnapshotV1Compatibility(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(snapshotHeader{
		Magic: snapshotMagic, Version: 1, Shard: "legacy", Entries: 3,
	}); err != nil {
		t.Fatal(err)
	}
	entries := []snapshotEntry{
		{Path: "/", IsDir: true, Childs: []string{"old"}},
		{Path: "/old", IsDir: true, Childs: []string{"ckpt.bin"}},
		{Path: "/old/ckpt.bin", Stripes: 2, StripeUnit: 4096,
			StripeSet: []string{"legacy", "peer"}, Data: []byte("bytes from a v1 world")},
	}
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := RestoreShard(&buf, 1<<20)
	if err != nil {
		t.Fatalf("v1 snapshot no longer restores: %v", err)
	}
	if sh.Name() != "legacy" {
		t.Fatalf("restored name %q", sh.Name())
	}
	fi, err := sh.Stat("/old/ckpt.bin")
	if err != nil || fi.Size != int64(len("bytes from a v1 world")) {
		t.Fatalf("stat: %+v err=%v", fi, err)
	}
	if fi.Stripes != 2 || fi.StripeUnit != 4096 || len(fi.StripeSet) != 2 {
		t.Fatalf("v1 layout metadata lost: %+v", fi)
	}
	got := make([]byte, fi.Size)
	if _, err := sh.ReadAt("/old/ckpt.bin", 0, got); err != nil || string(got) != "bytes from a v1 world" {
		t.Fatalf("read: %q err=%v", got, err)
	}
	// A future version must be rejected, not misread.
	var future bytes.Buffer
	fenc := gob.NewEncoder(&future)
	if err := fenc.Encode(snapshotHeader{
		Magic: snapshotMagic, Version: snapshotVersion + 1, Shard: "x", Entries: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreShard(&future, 1<<20); err == nil {
		t.Fatal("future snapshot version should be rejected")
	}
}

// Property: snapshot/restore preserves arbitrary file contents exactly.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(contents [][]byte) bool {
		sh := NewShard("p", 16<<20)
		total := 0
		for i, data := range contents {
			if i >= 8 {
				break
			}
			total += len(data)
			if total > 8<<20 {
				break
			}
			name := "/f" + string(rune('a'+i))
			if create(sh, name) != nil {
				return false
			}
			if len(data) > 0 {
				if _, err := sh.Append(name, data); err != nil {
					return false
				}
			}
		}
		var buf bytes.Buffer
		if sh.Snapshot(&buf) != nil {
			return false
		}
		restored, err := RestoreShard(&buf, 16<<20)
		if err != nil {
			return false
		}
		for i, data := range contents {
			if i >= 8 {
				break
			}
			name := "/f" + string(rune('a'+i))
			fi, err := restored.Stat(name)
			if err != nil {
				// Only acceptable if the original also lacks it (size cap).
				if _, err0 := sh.Stat(name); err0 != nil {
					continue
				}
				return false
			}
			got := make([]byte, fi.Size)
			if _, err := restored.ReadAt(name, 0, got); err != nil && fi.Size > 0 {
				return false
			}
			if !bytes.Equal(got, data[:fi.Size]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
