package fsys

import (
	"path"
	"strings"
	"testing"
)

// cleanCorpus holds a path of every shape clean tells apart: canonical
// ones it must return untouched and each way of not being canonical.
var cleanCorpus = []string{
	"", "/", "//a", "/a/", "/a/./b", "/a/../b", "/a/..", "/.a", "/..a", " /a ", "a",
	"/a ", "/a ", " /a", "/aé", // non-ASCII spaces trim, a letter does not
	"/dir/file-000123", "/a/b/c", "/a//b", "/.", "/..", "/a/.", "/a/...", "/a/.b/..c", "/a/b/",
	"/a\t", "/a\n", "/a\v", "/a\f", "/a\r", "/a b", "/ a", "/a/ /b", "/\x00", "/a\xff",
}

func cleanReference(p string) string { return path.Clean("/" + strings.TrimSpace(p)) }

func TestCleanMatchesPathClean(t *testing.T) {
	for _, p := range cleanCorpus {
		if got, want := clean(p), cleanReference(p); got != want {
			t.Errorf("clean(%q) = %q, want %q", p, got, want)
		}
	}
	// The fast path is taken where it matters: a canonical path costs
	// nothing.
	if n := testing.AllocsPerRun(100, func() { _ = clean("/dir/file-000123") }); n != 0 {
		t.Errorf("clean of a canonical path allocates %.0f times, want 0", n)
	}
}

func FuzzClean(f *testing.F) {
	for _, p := range cleanCorpus {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := clean(p), cleanReference(p); got != want {
			t.Errorf("clean(%q) = %q, want %q", p, got, want)
		}
	})
}
