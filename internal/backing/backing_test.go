package backing

import (
	"errors"
	"io"
	"testing"
)

// readStaged reads the whole object (owner, path, stripe) and its row;
// an empty owner matches any.
func readStaged(s Store, owner, path string, stripe int) ([]byte, FileMeta, error) {
	manifest, err := s.Manifest()
	if err != nil {
		return nil, FileMeta{}, err
	}
	for _, m := range manifest {
		if m.Path == path && m.Stripe == stripe && (owner == "" || m.Owner == owner) {
			data := make([]byte, m.Size)
			_, err := s.ReadRange(m, 0, data)
			return data, m, err
		}
	}
	return nil, FileMeta{}, ErrNotStaged
}

func TestDirWriteReadDelete(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := FileMeta{Owner: "s1", Path: "/a", Stripe: 0, Stripes: 1, StripeUnit: 4096, StripeSet: []string{"s1"}}
	if err := d.WriteRange(meta, 0, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRange(meta, 6, []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, m, err := readStaged(d, "", "/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" || m.Size != 11 {
		t.Fatalf("read %q size %d", data, m.Size)
	}
	// Positional reads: a middle range, then one that runs past the size.
	buf := make([]byte, 5)
	if n, err := d.ReadRange(meta, 3, buf); err != nil || string(buf[:n]) != "lo wo" {
		t.Fatalf("ReadRange(3) = %q, %v", buf[:n], err)
	}
	if n, err := d.ReadRange(meta, 8, buf); err != io.EOF || string(buf[:n]) != "rld" {
		t.Fatalf("ReadRange(8) = %q, %v; want \"rld\", EOF", buf[:n], err)
	}
	// Overwrite inside the object must not shrink it.
	if err := d.WriteRange(meta, 0, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	data, _, _ = readStaged(d, "s1", "/a", 0)
	if string(data) != "HELLO world" {
		t.Fatalf("after overwrite: %q", data)
	}
	if err := d.DeleteObject("s1", "/a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadRange(meta, 0, buf); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("read after delete: %v, want ErrNotStaged", err)
	}
}

func TestDirManifestPersists(t *testing.T) {
	root := t.TempDir()
	d, _ := OpenDir(root)
	if err := d.WriteRange(FileMeta{Owner: "s1", Path: "/x", Stripe: 1, Stripes: 2, StripeUnit: 8, StripeSet: []string{"s0", "s1"}}, 0, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRange(FileMeta{Owner: "s1", Path: "/dir", IsDir: true, Children: []string{"x"}}, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Reopen: manifest and objects survive the "crash".
	d2, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := d2.Manifest()
	if err != nil || len(manifest) != 2 {
		t.Fatalf("manifest = %v err=%v", manifest, err)
	}
	data, m, err := readStaged(d2, "", "/x", 1)
	if err != nil || string(data) != "bbbb" {
		t.Fatalf("reopened read: %q err=%v", data, err)
	}
	if m.Stripes != 2 || m.StripeUnit != 8 || len(m.StripeSet) != 2 {
		t.Fatalf("layout metadata lost: %+v", m)
	}
	_, dm, err := readStaged(d2, "", "/dir", 0)
	if err != nil || !dm.IsDir || len(dm.Children) != 1 {
		t.Fatalf("dir entry lost: %+v err=%v", dm, err)
	}
}
