package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/client"
	"themisio/internal/policy"
)

// staging boots a server over store at λ = 20 ms.
func staging(store backing.Store) func(*Config) {
	return func(c *Config) { c.Lambda, c.Backing = 20*time.Millisecond, store }
}

// stagedObject reads the whole staged stripe-0 object of path, whichever
// server staged it.
func stagedObject(store backing.Store, path string) ([]byte, error) {
	manifest, err := store.Manifest()
	if err != nil {
		return nil, err
	}
	for _, m := range manifest {
		if m.Path == path && m.Stripe == 0 {
			data := make([]byte, m.Size)
			_, err := store.ReadRange(m, 0, data)
			return data, err
		}
	}
	return nil, backing.ErrNotStaged
}

// TestStageOutRestart is the single-server lifecycle: write, flush,
// crash (no goodbye), restart on the same address with the same backing
// store, and read the bytes back — the stage-in/stage-out round trip
// the paper's conclusion leaves as future work.
func TestStageOutRestart(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := startFabric(t, listen(t, 1), staging(store))[0]
	addr := s.Addr()

	job := policy.JobInfo{JobID: "ckpt", UserID: "alice", Nodes: 2}
	c, err := client.Dial(job, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/run1"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 200_000) // 800 KB
	f, err := c.Open("/run1/ckpt.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(want); err != nil || n != len(want) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	// Durability barrier, then crash without a goodbye.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	startFabric(t, []net.Listener{ln}, staging(store))

	c2, err := client.Dial(job, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	f2, err := c2.Open("/run1/ckpt.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if total, err := io.ReadFull(f2, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restart read: %d/%d bytes, err=%v, identical=%v", total, len(want), err, bytes.Equal(got, want))
	}
	if names, err := c2.Readdir("/run1"); err != nil || len(names) != 1 || names[0] != "ckpt.bin" {
		t.Fatalf("restart readdir: %v %v", names, err)
	}
}

// TestStageOutUnlinkRecreate: an unlink followed by a recreate of the
// same path must not lose the new file to the old file's tombstone
// (tombstones are processed after the new incarnation may already have
// staged rows under the same keys). The flushed new content survives a
// crash-restart byte-identical.
func TestStageOutUnlinkRecreate(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := startFabric(t, listen(t, 1), staging(store))[0]
	addr := s.Addr()

	job := policy.JobInfo{JobID: "cycle", UserID: "alice"}
	c, err := client.Dial(job, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("OLD!"), 100_000)
	f, err := c.Open("/gen.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(old); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/gen.bin"); err != nil {
		t.Fatal(err)
	}
	// Recreate immediately — the unlink's tombstone has not drained yet.
	want := bytes.Repeat([]byte("new"), 50_000) // shorter than old, too
	f2, err := c.Open("/gen.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	startFabric(t, []net.Listener{ln}, staging(store))
	c2, err := client.Dial(job, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	size, _, err := c2.Stat("/gen.bin")
	if err != nil || size != int64(len(want)) {
		t.Fatalf("restart stat: size=%d err=%v, want %d (old tombstone ate the new file, or stale tail)", size, err, len(want))
	}
	f3, err := c2.Open("/gen.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if total, err := io.ReadFull(f3, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restart read: %d/%d bytes, err=%v, identical=%v", total, len(want), err, bytes.Equal(got[:total], want[:total]))
	}
}

// TestBackgroundDrainNoFlush checks that the drain engine stages data
// out on its own (through the scheduler, at λ cadence) with no explicit
// flush, and that unlinks propagate as backing deletes.
func TestBackgroundDrainNoFlush(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := startFabric(t, listen(t, 1), staging(store))[0]
	c, err := client.Dial(policy.JobInfo{JobID: "bg", UserID: "bob"}, []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/lazy.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("drip"), 50_000)
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the background drain to stage the file out", func() bool {
		obj, err := stagedObject(store, "/lazy.bin")
		return err == nil && bytes.Equal(obj, data)
	})
	if err := c.Unlink("/lazy.bin"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the unlink to reach the backing store", func() bool {
		_, err := stagedObject(store, "/lazy.bin")
		return err != nil
	})
	if chunks, bytesOut, _ := s.Drainer().Stats(); chunks == 0 || bytesOut < int64(len(data)) {
		t.Fatalf("drain stats: chunks=%d bytes=%d", chunks, bytesOut)
	}
}
