package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/fsys"
	"themisio/internal/policy"
)

// TestStreamFallsBackToStagedObject: when a migration source stops
// answering, its staged object stands in, read a segment at a time into
// the copy's own buffer; a staged object shorter than the stripe fails
// the copy with the source's error.
func TestStreamFallsBackToStagedObject(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dst := New(ln, Config{Policy: policy.SizeFair, Lambda: 50 * time.Millisecond, Quiet: true})
	go dst.Serve()
	defer dst.Close()
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := gone.Addr().String()
	gone.Close() // nobody answers there any more

	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	meta := backing.FileMeta{Owner: dead, Path: "/m", Stripe: 1, Stripes: 2, StripeUnit: 4096, StripeSet: []string{"x", dead}, LayoutGen: 1}
	if err := store.WriteRange(meta, 0, data); err != nil {
		t.Fatal(err)
	}
	m := NewMigrator("coord", fsys.NewShard("coord", 1<<20), nil, store, nil)
	defer m.Close()
	src := &source{m: m, path: "/m", gen: 1, unit: 4096, addrs: []string{"x", dead}, owners: []string{"x", dead}, errs: make([]error, 2)}
	buf := make([]byte, 4096) // three segments
	if err := m.stream(src, dst.Addr(), 1, 2, int64(len(data)), 2, buf); err != nil {
		t.Fatalf("stream from the staged object: %v", err)
	}
	layout := fsys.FileInfo{Path: "/m", Size: int64(len(data)), Stripes: 2, StripeUnit: 4096, StripeSet: []string{"x", dst.Addr()}, LayoutGen: 2}
	if err := dst.Shard().MigrateCommit(layout, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := dst.Shard().ReadAt("/m", 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("moved stripe: n=%d err=%v, bytes equal %v", n, err, bytes.Equal(got, data))
	}
	if err := m.stream(src, dst.Addr(), 1, 2, int64(len(data))+1, 3, buf); err == nil {
		t.Fatal("a staged object shorter than the stripe must fail the copy")
	}
}
