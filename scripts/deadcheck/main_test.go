package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestCheckFixture runs the check over the module in testdata/mod:
// internal/a, cmd/app, benchmark/ and a root test package.
//
// Not to be listed: Link, NewLink and a.Link.Stats (cmd/app calls them);
// fifo.Len and Pop (cmd/app drains an a.Queue: reached through the
// interface only); Report.Rows (reached through Render's type-parameter
// constraint only); Kind.String (cmd/app prints a Kind with fmt); Kept
// and the keptHelper it calls (the keep list); OnlyBench (benchmark/
// calls it); anything in cmd/ or benchmark/. Of Config's fields, read by
// the live Use: Rate (cmd/app's keyed literal writes it), Hits (++), Sum
// (+=), Debug (&c.Debug), Unread (never read), Name (json tag), Quiet
// (the keep list), Peer (not of basic kind), Stale (only the dead Dead
// reads it); pair's fields (a positional literal writes them).
func TestCheckFixture(t *testing.T) {
	got, err := check("testdata/mod", map[string]string{
		"a.Kept":         "the fixture's keep-list entry",
		"a.Config.Quiet": "the fixture's keep-list field",
		"a.Moved":        "a stale entry: only a _test.go file declares it",
	})
	if err != nil {
		t.Fatal(err)
	}
	const dead = " is referenced by no live non-test code"
	const unwritten = " is read but written by no live non-test code"
	want := []struct{ file, finding, why string }{ // in output order: by file, then line
		{"internal/a/a.go", "method a.Pool.Stats" + dead, "nothing calls it; its namesake Link.Stats is live"},
		{"internal/a/a.go", "func a.Dead" + dead, "nothing calls it"},
		{"internal/a/a.go", "func a.helper" + dead, "only Dead calls it"},
		{"internal/a/a.go", "func a.fromDeadVar" + dead, "held by a variable only Dead reads (the variable itself is not listed)"},
		{"internal/a/a.go", "method a.fifo.Peek" + dead, "in no interface live code uses, and nobody names it"},
		{"internal/a/a.go", "func a.TestOnly" + dead, "only the root test calls it, and a test's reference keeps nothing"},
		{"internal/a/a.go", "field a.Config.Window" + unwritten, "Use reads it; nothing writes it"},
		{"internal/a/a.go", "field a.Config.Limit" + unwritten, "only the root test writes it"},
		{"keep list", "a.Moved names no non-test function, method, type or field of the module", "a keep-list entry for a declaration that moved into a test"},
	}
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		where, finding, _ := strings.Cut(got[i], ": ")
		file, _, _ := strings.Cut(where, ":") // drop the line number
		ok = file == want[i].file && finding == want[i].finding+"\n"
	}
	if !ok {
		t.Errorf("check(testdata/mod) printed\n%swant\n%v", strings.Join(got, ""), want)
	}
}

// TestModuleHasNoDeadCode runs the check on this module with its keep
// list, as CI does: any line it prints fails the test, so go test ./...
// catches code whose last live caller went away.
func TestModuleHasNoDeadCode(t *testing.T) {
	out, err := check("../..", keep)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range out {
		t.Error(strings.TrimSuffix(line, "\n"))
	}
}

// citedTest matches a test, fuzz target or benchmark name as go test
// would declare it: the prefix, then no lowercase letter.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// TestCitedTestsExist checks that every Test…, Fuzz… or Benchmark… name
// the module's docs cite is a declared test function, or a prefix of one
// (a -run pattern such as TestTrace|TestSendPacketProc). It reads the
// backticked spans of README.md and the verify skill, the // comments
// of non-test Go outside benchmark/ (whose README documents its own
// harness), and the whole CI workflow. A name non-test code declares
// (measure.TestResult) is code, not a citation. Each alternative of a
// CI `-run '…'` pattern, ^$ aside, must also match a test or fuzz target
// of a package that line tests, so no renamed test leaves a step running
// nothing.
func TestCitedTestsExist(t *testing.T) {
	const root = "../.."
	declared := map[string][]string{} // package directory -> its test functions
	code := map[string]bool{}         // identifiers non-test Go declares
	cite := map[string][]string{}     // name -> where cited
	cites := func(text, where string) {
		for _, name := range citedTest.FindAllString(text, -1) {
			cite[name] = append(cite[name], where)
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		isTest := strings.HasSuffix(p, "_test.go")
		if !strings.HasSuffix(p, ".go") || (!isTest && strings.HasPrefix(rel, "benchmark"+string(filepath.Separator))) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if isTest {
			dir := filepath.ToSlash(filepath.Dir(rel))
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && citedTest.MatchString(fn.Name.Name) {
					declared[dir] = append(declared[dir], fn.Name.Name)
				}
			}
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				code[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						code[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							code[n.Name] = true
						}
					}
				}
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if strings.HasPrefix(c.Text, "//") {
					cites(c.Text, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked(string(b)) {
			cites(span, doc)
		}
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cites(string(ci), "ci.yml")
	runPattern := regexp.MustCompile(`-run '([^']*)'`)
	for _, line := range strings.Split(string(ci), "\n") {
		m := runPattern.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var tests []string // what the line's packages declare
		for _, arg := range strings.Fields(line) {
			pkg, ok := strings.CutPrefix(arg, "./")
			if !ok {
				continue
			}
			tree, isTree := strings.CutSuffix(pkg, "...")
			for dir, names := range declared {
				if isTree && strings.HasPrefix(dir+"/", tree) || dir == strings.TrimSuffix(pkg, "/") {
					tests = append(tests, names...)
				}
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			if alt == "^$" {
				continue
			}
			re := regexp.MustCompile(alt)
			if !slices.ContainsFunc(tests, func(name string) bool { return !strings.HasPrefix(name, "Benchmark") && re.MatchString(name) }) {
				t.Errorf("ci.yml: -run alternative %q matches no test of %s", alt, strings.TrimSpace(line))
			}
		}
	}
	if len(declared) == 0 || len(cite) == 0 {
		t.Fatalf("found %d declared tests and %d citations: wrong root?", len(declared), len(cite))
	}
	names := make([]string, 0, len(cite))
	for name := range cite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if code[name] {
			continue
		}
		found := false
		for _, names := range declared {
			found = found || slices.ContainsFunc(names, func(d string) bool { return strings.HasPrefix(d, name) })
		}
		if !found {
			t.Errorf("%s cites %s, which names no declared test", strings.Join(cite[name], ", "), name)
		}
	}
}

// backticked returns the code spans of a Markdown text: the bodies of
// fenced blocks, then the inline spans (which may wrap lines) between them.
func backticked(md string) []string {
	var spans []string
	fence := regexp.MustCompile("(?s)```.*?```")
	for _, block := range fence.FindAllString(md, -1) {
		spans = append(spans, block)
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(fence.ReplaceAllString(md, ""), -1) {
		spans = append(spans, m[1])
	}
	return spans
}
