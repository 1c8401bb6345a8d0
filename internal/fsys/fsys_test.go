package fsys

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// create makes an empty one-stripe file through the namespace path the
// server uses.
func create(s *Shard, p string) error {
	_, err := s.CreateStriped(p, 1, 1<<16, nil)
	return err
}

// unlink drops the description Unlink returns.
func unlink(s *Shard, p string) error {
	_, err := s.Unlink(p)
	return err
}

func TestMkdirCreateStatReaddir(t *testing.T) {
	s := NewShard("bb0", 64<<20)
	if err := s.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/data"); err != ErrExist {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	if err := s.Mkdir("/"); err != ErrExist {
		t.Fatalf("mkdir root: %v", err)
	}
	if err := s.Mkdir("/missing/sub"); err != ErrNotExist {
		t.Fatalf("mkdir under missing parent: %v", err)
	}
	if err := create(s, "/data/a.bin"); err != nil {
		t.Fatal(err)
	}
	if err := create(s, "/data/b.bin"); err != nil {
		t.Fatal(err)
	}
	// Open-or-create: a second create describes the file already there,
	// under the layout it was created with; a directory is in the way.
	if fi, err := s.CreateStriped("/data/a.bin", 2, 1<<12, []string{"x", "y"}); err != nil || fi.IsDir || fi.Stripes != 1 || fi.StripeUnit != 1<<16 || fi.LayoutGen != 1 {
		t.Fatalf("duplicate create: %+v %v", fi, err)
	}
	if _, err := s.CreateStriped("/data", 1, 1<<16, nil); err != ErrExist {
		t.Fatalf("create over a directory: %v", err)
	}
	if err := create(s, "/data/a.bin/under-a-file"); err != ErrNotDir {
		t.Fatalf("create under a file: %v", err)
	}
	fi, err := s.Stat("/data")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat dir: %+v %v", fi, err)
	}
	if fi, err := s.Stat("/data/a.bin"); err != nil || fi.IsDir || fi.Stripes != 1 || fi.StripeUnit != 1<<16 || fi.LayoutGen != 1 {
		t.Fatalf("stat file: %+v %v", fi, err)
	}
	names, err := s.Readdir("/data")
	if err != nil || len(names) != 2 || names[0] != "a.bin" || names[1] != "b.bin" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if _, err := s.Readdir("/data/a.bin"); err != ErrNotDir {
		t.Fatalf("readdir on file: %v", err)
	}
	if _, err := s.Stat("/nope"); err != ErrNotExist {
		t.Fatalf("stat missing: %v", err)
	}
	// Zero layout values fall back to one stripe of the default unit.
	created, err := s.CreateStriped("/dflt", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := s.Stat("/dflt"); fi.Stripes != 1 || fi.StripeUnit != DefaultStripeUnit || !reflect.DeepEqual(fi, created) {
		t.Fatalf("default layout: stat %+v, create said %+v", fi, created)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	s := NewShard("bb0", 64<<20)
	if err := create(s, "/f"); err != nil {
		t.Fatal(err)
	}
	// Write 1 MB in uneven chunks so reads cross extent boundaries.
	rng := rand.New(rand.NewSource(1))
	var want bytes.Buffer
	for want.Len() < 1<<20 {
		chunk := make([]byte, rng.Intn(100000)+1)
		rng.Read(chunk)
		if _, err := s.Append("/f", chunk); err != nil {
			t.Fatal(err)
		}
		want.Write(chunk)
	}
	fi, err := s.Stat("/f")
	if err != nil || fi.Size != int64(want.Len()) {
		t.Fatalf("size = %d, want %d (%v)", fi.Size, want.Len(), err)
	}
	got := make([]byte, want.Len())
	if n, err := s.ReadAt("/f", 0, got); err != nil || n != len(got) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("round trip corrupted data")
	}
	for i := 0; i < 50; i++ {
		off := rng.Intn(want.Len() - 1)
		n := rng.Intn(want.Len()-off) + 1
		buf := make([]byte, n)
		m, err := s.ReadAt("/f", int64(off), buf)
		if err != nil || m != n {
			t.Fatalf("range read off=%d n=%d: m=%d err=%v", off, n, m, err)
		}
		if !bytes.Equal(buf, want.Bytes()[off:off+n]) {
			t.Fatalf("range read mismatch at off=%d n=%d", off, n)
		}
	}
	// Reads past EOF are short.
	buf := make([]byte, 100)
	if n, err := s.ReadAt("/f", fi.Size-10, buf); err != nil || n != 10 {
		t.Fatalf("EOF read: n=%d err=%v", n, err)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	s := NewShard("s", 1<<20)
	if err := create(s, "/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/x", make([]byte, 300<<10)); err != nil {
		t.Fatal(err)
	}
	if s.Used() == 0 {
		t.Fatal("no space used after write")
	}
	// The reply describes the entry it removed.
	if fi, err := s.Unlink("/x"); err != nil || fi.IsDir || fi.Size != 300<<10 || fi.Stripes != 1 || fi.LayoutGen != 1 {
		t.Fatalf("unlink: %+v %v", fi, err)
	}
	if s.Used() != 0 {
		t.Fatalf("space leaked: %d bytes", s.Used())
	}
	if _, err := s.Stat("/x"); err != ErrNotExist {
		t.Fatalf("stat after unlink: %v", err)
	}
	if names, _ := s.Readdir("/"); len(names) != 0 {
		t.Fatalf("parent still lists %v", names)
	}
	if err := unlink(s, "/x"); err != ErrNotExist {
		t.Fatalf("second unlink: %v", err)
	}
}

func TestUnlinkDirectorySemantics(t *testing.T) {
	s := NewShard("s", 1<<20)
	if err := s.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := create(s, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := unlink(s, "/d"); err != ErrNotEmpty {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
	if err := unlink(s, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := unlink(s, "/d"); err != nil {
		t.Fatalf("unlink empty dir: %v", err)
	}
	if err := unlink(s, "/"); err != ErrNotEmpty {
		t.Fatalf("unlink root: %v", err)
	}
}

func TestWriteToMissingAndDirErrors(t *testing.T) {
	s := NewShard("s", 1<<20)
	if _, err := s.Append("/ghost", []byte("x")); err != ErrNotExist {
		t.Fatalf("write missing: %v", err)
	}
	s.Mkdir("/d")
	if _, err := s.Append("/d", []byte("x")); err != ErrIsDir {
		t.Fatalf("write to dir: %v", err)
	}
	if _, err := s.ReadAt("/f", -1, make([]byte, 1)); err != ErrBadOffset {
		t.Fatalf("negative offset: %v", err)
	}
}

// TestNamespaceHammer races file creators (and their own unlinks) in /d
// against a loop that removes and remakes /d whenever it is empty. Each
// mutation is one critical section, so whatever interleaving ran, the
// namespace it leaves is closed: every entry's parent exists and lists
// it, and every listed child exists.
func TestNamespaceHammer(t *testing.T) {
	s := NewShard("s", 1<<20)
	if err := s.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const creators, rounds = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := unlink(s, "/d")
			if err == ErrNotEmpty {
				continue
			}
			if err != nil {
				t.Errorf("rmdir /d: %v", err)
			}
			runtime.Gosched() // let a creator meet the missing parent
			if err := s.Mkdir("/d"); err != nil {
				t.Errorf("mkdir /d: %v", err)
			}
		}
	}()
	var cwg sync.WaitGroup
	for c := 0; c < creators; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for i := 0; i < rounds; i++ {
				p := fmt.Sprintf("/d/c%d-%d", c, i)
				err := create(s, p)
				if err == ErrNotExist {
					continue // /d was away at that instant
				}
				if err != nil {
					t.Errorf("create %s: %v", p, err)
					return
				}
				if i >= rounds-8 {
					continue // leave the last few behind for the final check
				}
				if err := unlink(s, p); err != nil {
					t.Errorf("unlink %s: %v", p, err)
					return
				}
			}
		}(c)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	s.mu.RLock()
	defer s.mu.RUnlock()
	for p, n := range s.nodes {
		if p != "/" {
			parent, name := path.Split(p)
			if d := s.nodes[clean(parent)]; d == nil || !d.children[name] {
				t.Errorf("%s is not linked from its parent (parent present: %v)", p, d != nil)
			}
		}
		for child := range n.children {
			if s.nodes[path.Join(p, child)] == nil {
				t.Errorf("%s lists %s, which does not exist", p, child)
			}
		}
	}
}
