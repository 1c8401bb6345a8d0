// Package archtest holds the repository's architecture rules — the "one X"
// rules ARCHITECTURE.md states — as one table of checks over the module's
// syntax trees (rules_test.go). TestArchitecture runs every row over the
// repository, which must come out clean, and over the row's fixture,
// testdata/<row>/, a small tree mirroring repository paths that must trip
// it. Run one row with
//
//	go test -run 'TestArchitecture/one_dialer' ./internal/archtest
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// A rule is a row of the table: its name, the sentence of the docs it
// holds, the Go files it reads, and a check that lists every place a tree
// breaks it as "path:line: what".
type rule struct {
	name  string
	doc   cite
	scope scope
	check func(t *tree, files []*goFile) []string
}

// A cite is a sentence the rule protects; it must stay in its file.
type cite struct{ file, sentence string }

// A scope selects a tree's Go files: those under one of dirs ("" is the
// whole root module; a path ending in .go is one file) and under none of
// skip, test files only if tests is set. A scope with no dirs selects none.
type scope struct {
	dirs  []string
	skip  []string
	tests bool
}

func TestArchitecture(t *testing.T) {
	repo := load(t, filepath.Join("..", ".."))
	fixtures := map[string]bool{}
	if ents, err := os.ReadDir("testdata"); err == nil {
		for _, e := range ents {
			fixtures[e.Name()] = true
		}
	}
	for _, r := range rules {
		key := strings.ReplaceAll(r.name, " ", "_")
		delete(fixtures, key)
		t.Run(key, func(t *testing.T) {
			t.Run("repo", func(t *testing.T) {
				if !strings.Contains(repo.text(t, r.doc.file), squash(r.doc.sentence)) {
					t.Errorf("%s no longer says %q, the sentence this rule protects", r.doc.file, r.doc.sentence)
				}
				for _, hit := range r.check(repo, repo.goFiles(r.scope)) {
					t.Error(hit)
				}
			})
			t.Run("fixture", func(t *testing.T) {
				dir := filepath.Join("testdata", key)
				if _, err := os.Stat(dir); err != nil {
					t.Fatalf("the rule has no fixture: %v", err)
				}
				fx := load(t, dir)
				hits := r.check(fx, fx.goFiles(r.scope))
				if len(hits) == 0 {
					t.Fatalf("%s does not trip the rule", dir)
				}
				t.Logf("%d hits, the first %s", len(hits), hits[0])
			})
		})
	}
	for name := range fixtures {
		t.Errorf("testdata/%s is the fixture of no rule", name)
	}
}

// A tree is a directory laid out like the repository: the repository
// itself, or a fixture.
type tree struct {
	root  string
	fset  *token.FileSet
	files []*goFile // the root module's Go files, in walk order
	docs  []string  // every .md file, slash-separated and relative to root
}

// A goFile is one parsed Go file of a tree.
type goFile struct {
	path    string // slash-separated, relative to the tree's root
	test    bool
	ast     *ast.File
	imports map[string]string // the name a file refers to an import by → its path
	fset    *token.FileSet
}

// load parses every Go file of the root module under root — skipping
// testdata, hidden directories and nested modules (benchmark/) — and lists
// every Markdown file but those under testdata and what .gitignore names.
func load(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{root: root, fset: token.NewFileSet()}
	var notModule []string // hidden directories and nested modules
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel == ".":
			case d.Name() == ".git" || d.Name() == "testdata" || rel == ".bench_build" || rel == "benchmark/out":
				return filepath.SkipDir
			case strings.HasPrefix(d.Name(), "."):
				notModule = append(notModule, rel+"/")
			default:
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					notModule = append(notModule, rel+"/")
				}
			}
			return nil
		}
		switch {
		case strings.HasSuffix(rel, ".md"):
			tr.docs = append(tr.docs, rel)
		case strings.HasSuffix(rel, ".go") && !under(rel, notModule):
			f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.files = append(tr.files, newGoFile(rel, f, tr.fset))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newGoFile(rel string, f *ast.File, fset *token.FileSet) *goFile {
	g := &goFile{path: rel, test: strings.HasSuffix(rel, "_test.go"), ast: f, imports: map[string]string{}, fset: fset}
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		} else if strings.HasPrefix(name, "v") && strings.Trim(name[1:], "0123456789") == "" && strings.Contains(p, "/") {
			name = path.Base(path.Dir(p)) // math/rand/v2 is rand
		}
		g.imports[name] = p
	}
	return g
}

// under reports whether the slash path p lies under one of the prefixes
// ("" is every path; a prefix not ending in / names one file).
func under(p string, prefixes []string) bool {
	for _, pre := range prefixes {
		if pre == "" || p == pre || strings.HasSuffix(pre, "/") && strings.HasPrefix(p, pre) {
			return true
		}
	}
	return false
}

func (t *tree) goFiles(s scope) []*goFile {
	var out []*goFile
	for _, f := range t.files {
		if (s.tests || !f.test) && under(f.path, s.dirs) && !under(f.path, s.skip) {
			out = append(out, f)
		}
	}
	return out
}

// text returns the file at the slash path rel with every run of white
// space squashed to one blank, so a sentence matches across line breaks.
func (t *tree) text(tb testing.TB, rel string) string {
	s, err := t.read(rel)
	if err != nil {
		tb.Fatal(err)
	}
	return squash(s)
}

// read returns the file at the slash path rel.
func (t *tree) read(rel string) (string, error) {
	b, err := os.ReadFile(filepath.Join(t.root, filepath.FromSlash(rel)))
	return string(b), err
}

func squash(s string) string { return strings.Join(strings.Fields(s), " ") }

// at formats a hit at n.
func (f *goFile) at(n ast.Node, format string, a ...any) string {
	return fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, fmt.Sprintf(format, a...))
}

// inspect calls visit on every node of f with the top-level function
// declaration it lies in, nil outside one.
func (f *goFile) inspect(visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, d := range f.ast.Decls {
		fn, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				visit(n, fn)
			}
			return true
		})
	}
}

// idents lists every identifier of f — declared or used, a selector's
// name or a field's — that match accepts, with its enclosing function.
func (f *goFile) idents(match func(name string) bool, visit func(id *ast.Ident, fn *ast.FuncDecl)) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		if id, ok := n.(*ast.Ident); ok && match(id.Name) {
			visit(id, fn)
		}
	})
}

// selectors calls visit for every selector expression x.Sel of f.
func (f *goFile) selectors(visit func(s *ast.SelectorExpr, fn *ast.FuncDecl)) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		if s, ok := n.(*ast.SelectorExpr); ok {
			visit(s, fn)
		}
	})
}

// calls calls visit for every call expression of f with what it calls:
// x.name, or name alone with x nil.
func (f *goFile) calls(visit func(c *ast.CallExpr, x ast.Expr, name string, fn *ast.FuncDecl)) {
	f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch e := bare(c.Fun).(type) {
		case *ast.Ident:
			visit(c, nil, e.Name, fn)
		case *ast.SelectorExpr:
			visit(c, e.X, e.Sel.Name, fn)
		}
	})
}

// bare strips parentheses, a pointer's star and type arguments off x.
func bare(x ast.Expr) ast.Expr {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return x
		}
	}
}

// names reports whether x names the package at import path pkg: through
// the file's imports, whatever it is called there, or by the package's
// own name when that is x's last name (s.log, a shadowing variable).
func (f *goFile) names(x ast.Expr, pkg string) bool {
	if id, ok := x.(*ast.Ident); ok && f.imports[id.Name] == pkg {
		return true
	}
	return last(x) == path.Base(pkg)
}

// last is the rightmost name of an identifier or selector, else "".
func last(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// funcName names a declared function as "Name" or "Recv.Name".
func funcName(fn *ast.FuncDecl) string {
	if fn == nil {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	return last(bare(fn.Recv.List[0].Type)) + "." + fn.Name.Name
}

// anyOf returns a predicate true of a name equal to one of names.
func anyOf(names ...string) func(string) bool {
	return func(s string) bool {
		for _, n := range names {
			if s == n {
				return true
			}
		}
		return false
	}
}

// containing returns a predicate true of a name containing one of subs.
func containing(subs ...string) func(string) bool {
	return func(s string) bool {
		for _, sub := range subs {
			if strings.Contains(s, sub) {
				return true
			}
		}
		return false
	}
}

// startingWith returns a predicate true of a name starting with pre.
func startingWith(pre string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, pre) }
}

// endingIn returns a predicate true of a name ending in one of sufs.
func endingIn(sufs ...string) func(string) bool {
	return func(s string) bool {
		for _, suf := range sufs {
			if strings.HasSuffix(s, suf) {
				return true
			}
		}
		return false
	}
}

// uses lists every selector x.Name in files whose name match accepts and
// whose x names the package at import path pkg (any x when pkg is "").
func uses(files []*goFile, pkg string, match func(string) bool, why string) (hits []string) {
	for _, f := range files {
		f.selectors(func(s *ast.SelectorExpr, _ *ast.FuncDecl) {
			if match(s.Sel.Name) && (pkg == "" || f.names(s.X, pkg)) {
				hits = append(hits, f.at(s, "%s: %s", s.Sel.Name, why))
			}
		})
	}
	return hits
}

// named lists every identifier in files whose name match accepts.
func named(files []*goFile, match func(string) bool, why string) (hits []string) {
	for _, f := range files {
		f.idents(match, func(id *ast.Ident, _ *ast.FuncDecl) {
			hits = append(hits, f.at(id, "%s: %s", id.Name, why))
		})
	}
	return hits
}
