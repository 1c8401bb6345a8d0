package archtest

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const transportPkg = "themisio/internal/transport"

// module is the root module's non-test Go files; benchmark/ is a module of
// its own and exempt from every rule.
var module = []string{""}

// maxTestSleeps holds the test files' time.Sleep calls where they are: a
// check that waits on a clock is slow and flaky where one that waits on an
// event is neither. A change that removes sleeps lowers it.
const maxTestSleeps = 13

// maxArchitectureLines is ARCHITECTURE.md's budget: one page on the
// design, with per-change history in docs/PERFLOG.md.
const maxArchitectureLines = 500

// rules is the table TestArchitecture runs. A row's fixture is
// testdata/<name with blanks as underscores>/.
var rules = []rule{
	{
		name:  "slog only",
		doc:   cite{"ARCHITECTURE.md", "the internal packages log through a `*slog.Logger` handed in via `server.Config`"},
		scope: scope{dirs: []string{"internal/"}},
		check: func(_ *tree, files []*goFile) []string {
			return uses(files, "log", anyOf("Printf", "Println", "Print", "Fatalf", "Fatal", "Fatalln"),
				"log through the injected *slog.Logger, not the log package")
		},
	},
	{
		name:  "one dialer",
		doc:   cite{"ARCHITECTURE.md", "Pools live in a `transport.Peers` set, the one place a connection is dialed"},
		scope: scope{dirs: module, skip: []string{"internal/transport/"}},
		check: func(_ *tree, files []*goFile) []string {
			return uses(files, "net", startingWith("Dial"), "dial through transport.Peers")
		},
	},
	{
		name:  "one controller",
		doc:   cite{"ARCHITECTURE.md", "is `internal/control`'s `Loop`, and there is one"},
		scope: scope{dirs: module, skip: []string{"internal/control/", "internal/core/", "internal/sched/", "internal/metrics/"}},
		check: func(_ *tree, files []*goFile) []string {
			const why = "drive internal/control instead"
			hits := named(files, endingIn("SetJobs", "ApplyDelta"), why)
			hits = append(hits, uses(files, "", anyOf("SetPolicy"), why)...)
			for _, f := range files {
				f.selectors(func(s *ast.SelectorExpr, _ *ast.FuncDecl) {
					if s.Sel.Name == "Roll" && strings.HasSuffix(strings.ToLower(last(s.X)), "ledger") {
						hits = append(hits, f.at(s, "ledger Roll: %s", why))
					}
				})
			}
			return hits
		},
	},
	{
		name:  "one publisher",
		doc:   cite{"ARCHITECTURE.md", "`jobtable.Refresh` is the table's one publisher and the controller's `Compile` its one caller"},
		scope: scope{dirs: module, skip: []string{"internal/control/"}},
		check: func(t *tree, files []*goFile) []string {
			const why = "hand the job table's delta over only from Table.Refresh, called by control.Loop.Compile"
			hits := uses(files, "", anyOf("Refresh"), why)
			table := t.goFiles(scope{dirs: []string{"internal/jobtable/"}})
			pubs := 0
			for _, f := range table {
				f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
					a, ok := n.(*ast.AssignStmt)
					if !ok {
						return
					}
					for _, lhs := range a.Lhs {
						if s, ok := lhs.(*ast.SelectorExpr); ok && s.Sel.Name == "pub" {
							pubs++
							if fn == nil || fn.Recv == nil || fn.Name.Name != "Refresh" {
								hits = append(hits, f.at(s, "%s sets the handed-over set: %s", funcName(fn), why))
							}
						}
					}
				})
			}
			if pubs == 0 {
				hits = append(hits, "internal/jobtable: no Refresh sets the handed-over set (.pub)")
			}
			hits = append(hits, uses(table, "sync/atomic", anyOf("Pointer", "Uint64"), "the job table keeps no lock-free snapshot or counter")...)
			hits = append(hits, named(table, func(s string) bool {
				return strings.Contains(s, "DeltaSince") || strings.HasSuffix(s, "Generation")
			}, "the job table keeps no generation or delta ring")...)
			return append(hits, uses(t.goFiles(scope{dirs: module, tests: true}), "", anyOf("DeltaSince", "ActiveSnapshot", "Generation"),
				"a second consumer of the job table")...)
		},
	},
	{
		name:  "one sender",
		doc:   cite{"ARCHITECTURE.md", "**The client sends a request in four ways**"},
		scope: scope{dirs: []string{"internal/client/"}},
		check: func(_ *tree, files []*goFile) []string {
			const why = "send through callAddr, fanOut, call, readStripe or writeStripe"
			picks, sends, stripes := 0, 0, 0
			for _, f := range files {
				f.calls(func(c *ast.CallExpr, x ast.Expr, name string, _ *ast.FuncDecl) {
					switch {
					case x != nil && name == "Pick" && len(c.Args) == 0:
						picks++
					case x != nil && name == "Call", strings.HasSuffix(name, "exchange"):
						sends++
					case x != nil && f.names(x, transportPkg) && (name == "ReadStripe" || name == "WriteStripe"):
						stripes++
					}
				})
			}
			hits := named(files, endingIn("poolCall", "broadcast"), why)
			hits = append(hits, uses(files, transportPkg, anyOf("MsgWrite"), "every write is WriteStripe's positional append")...)
			if picks != 1 || sends != 1 || stripes != 2 {
				hits = append(hits, fmt.Sprintf("internal/client: %d Pick() calls (want 1), %d MuxConn.Call calls (want 1), %d stripe pipeline calls (want 2): %s",
					picks, sends, stripes, why))
			}
			return hits
		},
	},
	{
		name:  "one byte mover",
		doc:   cite{"ARCHITECTURE.md", "**One byte mover** (`internal/transport/stripe.go`)"},
		scope: scope{dirs: module},
		check: func(t *tree, files []*goFile) []string {
			want := map[string]int{"internal/transport/pool.go": 1, "internal/transport/stripe.go": 1}
			got := map[string]int{}
			for _, f := range files {
				f.calls(func(_ *ast.CallExpr, x ast.Expr, name string, _ *ast.FuncDecl) {
					if x != nil && name == "Start" {
						got[f.path]++
					}
				})
			}
			for p := range want {
				got[p] += 0 // counted even when it calls Start nowhere
			}
			var hits []string
			for p, n := range got {
				if n != want[p] {
					hits = append(hits, fmt.Sprintf("%s: %d MuxConn.Start calls, want %d: start only in MuxConn.Call and the stripe pipeline", p, n, want[p]))
				}
			}
			sort.Strings(hits)
			hits = append(hits, named(t.goFiles(scope{dirs: module, tests: true}), containing("MigrateInstall"),
				"the migrator copies through the stripe pipeline")...)
			return append(hits, named(files, func(s string) bool {
				return endingIn("Interleave", "ReadObject")(s) || containing("RestoreShard", "snapshotEntry")(s)
			}, "stage in through Store.ReadRange, a segment at a time")...)
		},
	},
	{
		name:  "one landing path",
		doc:   cite{"ARCHITECTURE.md", "the file's index adopts it"},
		scope: scope{dirs: []string{"internal/fsys/"}},
		check: func(_ *tree, files []*goFile) (hits []string) {
			for _, f := range files {
				f.selectors(func(s *ast.SelectorExpr, fn *ast.FuncDecl) {
					if s.Sel.Name == "Append" && strings.HasSuffix(last(s.X), "index") && !(fn != nil && fn.Recv != nil && fn.Name.Name == "adoptLocked") {
						hits = append(hits, f.at(s, "index.Append in %s: land a write's bytes through adoptLocked", funcName(fn)))
					}
				})
			}
			return hits
		},
	},
	{
		name:  "one reply landing",
		doc:   cite{"ARCHITECTURE.md", "the connection reader reads a payload of exactly their length off the socket into them"},
		scope: scope{dirs: []string{"internal/client/", "internal/transport/stripe.go"}},
		check: func(_ *tree, files []*goFile) []string {
			const why = "land read replies in the caller's buffer through ReadStripe's spans"
			hits := named(files, containing("scatterLocal"), why)
			for _, f := range files {
				f.calls(func(c *ast.CallExpr, x ast.Expr, name string, _ *ast.FuncDecl) {
					if x == nil && name == "copy" && len(c.Args) == 2 && selects(c.Args[1], "Data") {
						hits = append(hits, f.at(c, "a copy out of a reply's Data: %s", why))
					}
				})
			}
			return hits
		},
	},
	{
		name:  "one retry loop",
		doc:   cite{"ARCHITECTURE.md", "re-stats and retries within the call's one budget"},
		scope: scope{dirs: []string{"internal/client/"}},
		check: func(_ *tree, files []*goFile) []string {
			const why = "retry through the client's retry loop, on the File itself"
			var hits []string
			if sleeps := uses(files, "time", anyOf("Sleep"), "more than one sleep: "+why); len(sleeps) > 1 {
				hits = sleeps
			}
			return append(hits, named(files, containing("refreshHandle", "fileHandle"), why)...)
		},
	},
	{
		name:  "one re-layout path",
		doc:   cite{"ARCHITECTURE.md", "The migrator moves files when members *join* and when they *fail or leave*"},
		scope: scope{dirs: module},
		check: func(_ *tree, files []*goFile) []string {
			const why = "move files off a failed member with the migrator"
			hits := named(files, containing("RecoverSegment", "StageAffected", "FilesWithServer", "DropStale", "CollectDirtyPath", "recoverDelayTicks"), why)
			for _, f := range files {
				f.idents(endingIn("RestoreFile"), func(id *ast.Ident, fn *ast.FuncDecl) {
					if fn != nil && fn.Name == id || f.path == "internal/backing/rehydrate.go" && funcName(fn) == "Rehydrate" {
						return
					}
					hits = append(hits, f.at(id, "%s in %s: RestoreFile is for Rehydrate alone", id.Name, funcName(fn)))
				})
			}
			return hits
		},
	},
	{
		name:  "one token draw",
		doc:   cite{"ARCHITECTURE.md", "The draw lives in `token`"},
		scope: scope{dirs: []string{"internal/core/"}},
		check: func(t *tree, files []*goFile) []string {
			const why = "draw through token.Assignment"
			hits := uses(files, "sort", startingWith("Search"), why)
			return append(hits, uses(t.goFiles(scope{dirs: module, skip: []string{"internal/token/", "internal/policy/"}}), "", anyOf("Ws", "Cum"),
				"block weights are read by internal/token and built by internal/policy alone")...)
		},
	},
	{
		name:  "one receive",
		doc:   cite{"ARCHITECTURE.md", "**One receive** (`Conn.recv`)"},
		scope: scope{dirs: []string{"internal/transport/"}},
		check: func(_ *tree, files []*goFile) (hits []string) {
			const why = "receive every frame through Conn.recv"
			for _, f := range files {
				f.idents(anyOf("recvInPlace"), func(id *ast.Ident, fn *ast.FuncDecl) {
					if fn == nil || fn.Name != id && funcName(fn) != "Conn.recv" {
						hits = append(hits, f.at(id, "recvInPlace in %s: %s", funcName(fn), why))
					}
				})
				for _, d := range f.ast.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && anyOf("recvPlaced", "recvReply", "readBody")(fn.Name.Name) {
						hits = append(hits, f.at(fn, "func %s: %s", funcName(fn), why))
					}
				}
			}
			return hits
		},
	},
	{
		name:  "one serve",
		doc:   cite{"ARCHITECTURE.md", "**One serve** (`Server.serve`) runs what a draw selects on the goroutine that drew"},
		scope: scope{dirs: []string{"internal/server/"}},
		check: func(_ *tree, files []*goFile) (hits []string) {
			const why = "execute a request only in Server.serve, on the goroutine whose Pop drew it"
			drawers := anyOf("Server.drainer", "Server.drawOnReader")
			in := map[string]func(string) bool{
				"execute":  anyOf("Server.serve"),
				"serve":    drawers,
				"Pop":      drawers,
				"PopBatch": drawers,
			}
			for _, f := range files {
				f.calls(func(c *ast.CallExpr, x ast.Expr, name string, fn *ast.FuncDecl) {
					if ok, ruled := in[name]; ruled && x != nil && !ok(funcName(fn)) {
						hits = append(hits, f.at(c, "%s called in %s: %s", name, funcName(fn), why))
					}
				})
			}
			return hits
		},
	},
	{
		name:  "one fabric harness",
		doc:   cite{"ARCHITECTURE.md", "the cluster, server and client tests boot live servers in `startFabric` alone"},
		scope: scope{dirs: []string{"internal/cluster/", "internal/server/", "internal/client/"}, tests: true},
		check: func(_ *tree, files []*goFile) (hits []string) {
			const why = "boot a live test server through the package's startFabric"
			for _, f := range files {
				f.inspect(func(n ast.Node, fn *ast.FuncDecl) {
					g, ok := n.(*ast.GoStmt)
					if !ok || !f.test || funcName(fn) == "startFabric" {
						return
					}
					ast.Inspect(g.Call, func(n ast.Node) bool {
						if c, ok := n.(*ast.CallExpr); ok && last(bare(c.Fun)) == "Serve" {
							hits = append(hits, f.at(c, "Serve started in %s: %s", funcName(fn), why))
						}
						return true
					})
				})
			}
			return hits
		},
	},
	{
		name: "docs hygiene",
		doc:  cite{"ARCHITECTURE.md", "every relative link in a Markdown file resolves"},
		check: func(t *tree, _ []*goFile) (hits []string) {
			for _, md := range t.docs {
				s, err := t.read(md)
				if err != nil {
					return append(hits, err.Error())
				}
				for i, line := range strings.Split(s, "\n") {
					for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
						link, _, _ := strings.Cut(m[1], ` "`) // a link's title
						target, _, _ := strings.Cut(link, "#")
						if target == "" || strings.HasPrefix(link, "http://") || strings.HasPrefix(link, "https://") || strings.HasPrefix(link, "mailto:") {
							continue
						}
						if _, err := os.Stat(filepath.Join(t.root, filepath.FromSlash(path.Dir(md)), filepath.FromSlash(target))); err != nil {
							hits = append(hits, fmt.Sprintf("%s:%d: broken link -> %s", md, i+1, link))
						}
					}
				}
			}
			return hits
		},
	},
	{
		name: "names exist",
		doc:  cite{"ARCHITECTURE.md", "every test, benchmark and fuzz target the docs and CI name exists"},
		check: func(t *tree, _ []*goFile) (hits []string) {
			tests := testFuncs(t)
			for _, doc := range []string{"ARCHITECTURE.md", "README.md", "docs/OPERATIONS.md"} {
				s, err := t.read(doc)
				if err != nil {
					continue
				}
				for i, line := range strings.Split(s, "\n") {
					for _, name := range testName.FindAllString(line, -1) {
						if !tests.any(nil, anyOf(name)) {
							hits = append(hits, fmt.Sprintf("%s:%d: %s is no function of the module", doc, i+1, name))
						}
					}
				}
			}
			ci, err := t.read(".github/workflows/ci.yml")
			if err != nil {
				return hits
			}
			return append(hits, tests.ciPatterns(ci)...)
		},
	},
	{
		name: "architecture budget",
		doc:  cite{"ARCHITECTURE.md", "One page on how a request flows through the system"},
		check: func(t *tree, _ []*goFile) []string {
			s, err := t.read("ARCHITECTURE.md")
			if err != nil {
				return []string{err.Error()}
			}
			if n := strings.Count(s, "\n"); n > maxArchitectureLines {
				return []string{fmt.Sprintf("ARCHITECTURE.md: %d lines, over its budget of %d: history goes to docs/PERFLOG.md", n, maxArchitectureLines)}
			}
			return nil
		},
	},
	{
		name:  "test sleeps",
		doc:   cite{"ARCHITECTURE.md", "a count that only goes down"},
		scope: scope{dirs: module, tests: true},
		check: func(_ *tree, files []*goFile) []string {
			var tests []*goFile
			for _, f := range files {
				if f.test {
					tests = append(tests, f)
				}
			}
			if sleeps := uses(tests, "time", anyOf("Sleep"), "wait on an event, not a clock"); len(sleeps) > maxTestSleeps {
				return append([]string{fmt.Sprintf("%d time.Sleep calls in test files, over %d", len(sleeps), maxTestSleeps)}, sleeps...)
			}
			return nil
		},
	},
}

// selects reports whether x contains a selector of name.
func selects(x ast.Expr, name string) (found bool) {
	ast.Inspect(x, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// mdLink is a Markdown link's target: what lies between "](" and ")" on
// one line.
var mdLink = regexp.MustCompile(`\]\(([^)\n]+)\)`)

// testName is a test, benchmark or fuzz target named in prose.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

// funcsByDir holds the test files' top-level functions by package directory.
type funcsByDir map[string][]string

func testFuncs(t *tree) funcsByDir {
	out := funcsByDir{}
	for _, f := range t.goFiles(scope{dirs: module, tests: true}) {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[path.Dir(f.path)] = append(out[path.Dir(f.path)], fn.Name.Name)
			}
		}
	}
	return out
}

// any reports whether match accepts a function of a package that go
// test's package arguments args name, or of any package when args is nil.
func (funcs funcsByDir) any(args []string, match func(string) bool) bool {
	for dir, fns := range funcs {
		if args != nil && !inPackages(args, dir) {
			continue
		}
		for _, fn := range fns {
			if match(fn) {
				return true
			}
		}
	}
	return false
}

// inPackages reports whether one of go test's package arguments args names
// the package in dir ("." for the root): "./..." names every package,
// "./internal/x/..." internal/x and those under it, "./internal/x" that one.
func inPackages(args []string, dir string) bool {
	for _, arg := range args {
		arg = strings.TrimSuffix(strings.TrimPrefix(arg, "./"), "/")
		if rest, ok := strings.CutSuffix(arg, "..."); ok {
			rest = strings.TrimSuffix(rest, "/")
			if rest == "" || dir == rest || strings.HasPrefix(dir, rest+"/") {
				return true
			}
		} else if dir == arg {
			return true
		}
	}
	return false
}

// ciPatterns checks every alternative of every -run, -bench and -fuzz
// pattern of a go test line in the CI file: as go test matches names,
// each must match a function of the packages the line names.
func (funcs funcsByDir) ciPatterns(ci string) (hits []string) {
	kinds := map[string][]string{"-run": {"Test", "Fuzz", "Example"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	for i, line := range strings.Split(ci, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var pats [][2]string // flag, pattern
		var pkgs []string
		other := false // the line runs another module's tests (-C)
		args := strings.Fields(cmd)
		for k := 0; k < len(args) && !anyOf("&&", "||", "|", ";")(args[k]); k++ {
			flag, val, eq := strings.Cut(args[k], "=")
			switch {
			case flag == "-C":
				other = true
			case kinds[flag] != nil:
				if !eq && k+1 < len(args) {
					k++
					val = args[k]
				}
				pats = append(pats, [2]string{flag, strings.Trim(val, `'"`)})
			case strings.HasPrefix(flag, "."):
				pkgs = append(pkgs, flag)
			}
		}
		if other {
			continue
		}
		if pkgs == nil {
			pkgs = []string{"."}
		}
		for _, p := range pats {
			if p[1] == "^$" {
				continue
			}
			for _, alt := range splitTop(splitTop(p[1], '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					hits = append(hits, fmt.Sprintf("ci.yml:%d: %s %q: %v", i+1, p[0], alt, err))
					continue
				}
				if !funcs.any(pkgs, func(fn string) bool {
					for _, pre := range kinds[p[0]] {
						if strings.HasPrefix(fn, pre) && re.MatchString(fn) {
							return true
						}
					}
					return false
				}) {
					hits = append(hits, fmt.Sprintf("ci.yml:%d: %s alternative %q matches no function in %s", i+1, p[0], alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return hits
}

// splitTop splits a regular expression at every sep outside parentheses,
// brackets and escapes.
func splitTop(re string, sep byte) []string {
	var out []string
	depth, from := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, re[from:i])
				from = i + 1
			}
		}
	}
	return append(out, re[from:])
}
