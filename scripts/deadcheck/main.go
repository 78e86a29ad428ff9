// Command deadcheck lists every function, method and type declared
// under internal/ or in the root facade that no live non-test code
// references: code only its own tests, or only other dead code, reach.
//
// The reading is by object identity: every non-test package of the
// module is type-checked (go/types, standard library only), so a
// declaration is live when a live declaration refers to that object, not
// to a namesake. Liveness starts at what runs — all of cmd/, benchmark/,
// examples/ and scripts/, init functions, blank variables — and, for the
// root facade, at what its in-repo clients name: examples/ and the root
// _test package. It spreads along references to a fixpoint. A method
// nobody names is live when its receiver type is live and satisfies an
// interface live code can call it through: one a live declaration
// mentions (a type-parameter constraint included), or one exported by a
// standard package live code uses, which may call back anything it
// exports (net.Conn, fmt.Stringer, sort.Interface). Package-level
// variables and constants carry liveness but are not themselves listed.
//
// It also lists every struct field of basic underlying kind (numbers,
// bool, string, time.Duration) that live non-test code reads but never
// writes: a setting only tests set, or none, whose one value in use is a
// constant. A write is a composite-literal key or positional element, an
// assignment or op-assignment target, ++/--, or &x.F. Fields with a json
// tag are exempt: decoding fills them.
//
// What stays on purpose is in the keep list, by package-qualified name
// (package.Type.Field for a field) with a reason. CI fails on any output.
//
//	go run ./scripts/deadcheck [module root, default "."]
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// keep is what stays although no live non-test code references it.
var keep = map[string]string{
	"endhost.Host.Stats":              "fault detection: a host's protocol counters (FramesRejected, GrantsReturned, ReverseInits…) are how the conversation tests and the UDP deployment test see a refused or duplicated frame",
	"endhost.Host.InitiateTo":         "paper §3.3: a customer opens the conduit to an outside host (reverse key setup)",
	"core.Neutralizer.ReleaseDynAddr": "paper §3.4: a dynamic address returns to the pool when its flow ends",
	"core.Neutralizer.DynFlowOf":      "paper §3.4: which flow holds a dynamic address",
	"netem.Node.AddAddr":              "paper §3.4: the hosting node claims a dynamic address (what Config.OnDynAlloc is for)",
	"netem.Node.RemoveAddr":           "paper §3.4: the hosting node's side of ReleaseDynAddr",
	"netem.Simulator.SetPoolDebug":    "fault detection: poisons recycled packets so a use-after-release shows",
	"netem.Packet.Retain":             "fault detection: the other half of the refcount Packet.Release enforces (double release panics)",
	"eval.NewDPIBench":                "fixture of BenchmarkDPIFeatureUpdate/DPIClassify/CloakFrame, which have no twin in benchmark/",
	"eval.NewAuditBench":              "fixture of BenchmarkAuditTrial/AuditReportCodec, which have no twin in benchmark/",
	"endhost.Config.ServeOffload":     "paper §3.2: a customer host answers offloaded key setups; the offload tests turn it on",
	"endhost.Config.ReturnFlags":      "paper §3.4: a customer asks for a dynamic address or no anonymization on its return traffic; the §3.4 tests set it",
	"eval.AuditConfig.Observe":        "fault detection: the golden and worker-identity tests observe E8 to pin its observation digest",
}

func main() {
	out, err := check(filepath.Clean(append(os.Args[1:], ".")[0]), keep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	if fmt.Print(strings.Join(out, "")); len(out) > 0 {
		os.Exit(1)
	}
}

// entryDirs hold programs: everything declared under them runs or is
// somebody's main, and they are read, never reported.
var entryDirs = map[string]bool{"cmd": true, "benchmark": true, "examples": true, "scripts": true}

// decl is one package-level declaration or method: the objects its
// source mentions, the interface types it spells out, and the struct
// fields it reads and writes.
type decl struct {
	refs          []types.Object
	ifaces        []*types.Interface
	reads, writes []*types.Var
}

type checker struct {
	root, module string
	fset         *token.FileSet
	stdImporter  types.Importer
	info         *types.Info
	pkgs         map[string]*types.Package // module packages by import path
	keep         map[string]string

	decls  map[types.Object]*decl
	live   map[types.Object]bool
	queue  []types.Object
	ifaces map[*types.Interface]bool      // interfaces live code can call through
	std    map[*types.Package]bool        // standard packages live code uses
	owner  map[*types.Var]*types.TypeName // untagged struct fields by declaring type
}

// check returns one line per dead declaration of the module at root,
// sorted.
func check(root string, keep map[string]string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("no module line in %s/go.mod (%v)", root, err)
	}
	// cgo variants of net and os/user would need the cgo tool; the pure
	// Go files declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	c := &checker{
		root: root, module: string(m[1]), fset: fset, keep: keep,
		stdImporter: importer.ForCompiler(fset, "source", nil),
		info:        &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs:        map[string]*types.Package{},
		decls:       map[types.Object]*decl{}, live: map[types.Object]bool{},
		ifaces: map[*types.Interface]bool{}, std: map[*types.Package]bool{},
		owner: map[*types.Var]*types.TypeName{},
	}
	pkgs, err := c.packages()
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		if _, err := c.load(pkg); err != nil {
			return nil, err
		}
	}
	if err := c.facadeClients(); err != nil {
		return nil, err
	}
	c.spread()

	var out []string
	for obj := range c.decls {
		if c.live[obj] || !c.reported(obj) {
			continue
		}
		pos := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s %s is referenced by no live non-test code\n",
			filepath.ToSlash(rel), pos.Line, kind(obj), qualified(obj)))
	}
	out = append(out, c.unwrittenFields()...)
	sort.Strings(out)
	return out, nil
}

// unwrittenFields lists the fields of basic kind that live code reads and
// never writes, keep-list fields apart.
func (c *checker) unwrittenFields() []string {
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	for obj, d := range c.decls {
		if !c.live[obj] {
			continue
		}
		for _, v := range d.reads {
			read[v] = true
		}
		for _, v := range d.writes {
			written[v] = true
		}
	}
	var out []string
	for v := range read {
		owner := c.owner[v]
		if written[v] || owner == nil || !c.reported(owner) {
			continue
		}
		if _, basic := v.Type().Underlying().(*types.Basic); !basic {
			continue
		}
		name := qualified(owner) + "." + v.Name()
		if c.keep[name] != "" {
			continue
		}
		pos := c.fset.Position(v.Pos())
		rel, _ := filepath.Rel(c.root, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: field %s is read but written by no live non-test code\n",
			filepath.ToSlash(rel), pos.Line, name))
	}
	return out
}

// field returns obj as a struct field, or nil.
func field(obj types.Object) *types.Var {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// packages lists the import path of every directory of the module that
// holds a non-test Go file, skipping testdata, dot directories and
// nested modules.
func (c *checker) packages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(c.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(c.root, dir)
		if rel != "." {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
		}
		if bp, err := build.Default.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, path.Join(c.module, filepath.ToSlash(rel)))
		}
		return nil
	})
	return paths, err
}

func (c *checker) inModule(pkg string) bool {
	return pkg == c.module || strings.HasPrefix(pkg, c.module+"/")
}

// Import makes the checker the importer of its own packages, so that
// every module package is checked once and an object has one identity.
func (c *checker) Import(pkg string) (*types.Package, error) {
	if c.inModule(pkg) {
		return c.load(pkg)
	}
	return c.stdImporter.Import(pkg)
}

func (c *checker) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (c *checker) load(pkg string) (*types.Package, error) {
	if p := c.pkgs[pkg]; p != nil {
		return p, nil
	}
	bp, err := build.Default.ImportDir(filepath.Join(c.root, strings.TrimPrefix(pkg, c.module)), 0)
	if err != nil {
		return nil, err
	}
	files, err := c.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: c}).Check(pkg, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[pkg] = p
	top, _, _ := strings.Cut(strings.TrimPrefix(pkg, c.module+"/"), "/")
	for _, f := range files {
		c.collect(f, pkg != c.module && entryDirs[top])
	}
	return p, nil
}

// collect records what each declaration of f mentions; in an entry
// package, and for init functions, blank variables and keep-list
// entries, the declaration is live from the start.
func (c *checker) collect(f *ast.File, entry bool) {
	add := func(id *ast.Ident, n ast.Node) {
		obj := c.info.Defs[id]
		if obj == nil {
			return
		}
		d := &decl{}
		// Inspect visits a node before its children, so a write position
		// is marked before the field's identifier is reached.
		written := map[*ast.Ident]bool{}
		write := func(e ast.Expr) {
			for p, ok := e.(*ast.ParenExpr); ok; p, ok = e.(*ast.ParenExpr) {
				e = p.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := c.info.Uses[n]; o != nil {
					d.refs = append(d.refs, o)
				}
				if v := field(c.info.Uses[n]); v != nil {
					if written[n] {
						d.writes = append(d.writes, v)
					} else {
						d.reads = append(d.reads, v)
					}
				}
			case *ast.InterfaceType:
				if it, ok := c.info.Types[n].Type.(*types.Interface); ok {
					d.ifaces = append(d.ifaces, it)
				}
			case *ast.CompositeLit:
				t := c.info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok { // an elided &T{}
					t = p.Elem()
				}
				st, _ := t.Underlying().(*types.Struct)
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[id] = true
						}
					} else if st != nil && i < st.NumFields() {
						d.writes = append(d.writes, st.Field(i).Origin())
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					write(l)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
		// a constant that repeats the line above it names no type, but has one
		if t, ok := obj.Type().(*types.Named); ok {
			d.refs = append(d.refs, t.Obj())
		}
		c.decls[obj] = d
		isInit := id.Name == "init" && receiver(obj) == nil
		if entry || isInit || id.Name == "_" || c.keep[qualified(obj)] != "" {
			c.mark(obj)
		}
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			add(gd.Name, gd)
		case *ast.GenDecl:
			for _, s := range gd.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
					c.fields(s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
}

// fields records which named type declares each field of s, if s is a
// struct type. Fields with a json tag are left out: decoding fills them.
func (c *checker) fields(s *ast.TypeSpec) {
	st, ok := s.Type.(*ast.StructType)
	tn, _ := c.info.Defs[s.Name].(*types.TypeName)
	if !ok || tn == nil {
		return
	}
	for _, f := range st.Fields.List {
		if f.Tag != nil {
			tag, _ := strconv.Unquote(f.Tag.Value)
			if _, json := reflect.StructTag(tag).Lookup("json"); json {
				continue
			}
		}
		for _, id := range f.Names {
			if v := field(c.info.Defs[id]); v != nil {
				c.owner[v] = tn
			}
		}
	}
}

// facadeClients marks what the root package's test files name of the
// root package: with examples/ they are the facade's only clients in
// the repository. What they name of any other package is a test's
// reference and does not count.
func (c *checker) facadeClients() error {
	facade := c.pkgs[c.module]
	if facade == nil {
		return nil
	}
	bp, err := build.Default.ImportDir(c.root, 0)
	if err != nil {
		return err
	}
	files, err := c.parse(c.root, bp.XTestGoFiles)
	if err != nil || len(files) == 0 {
		return err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: c}).Check(c.module+"_test", c.fset, files, info); err != nil {
		return err
	}
	for _, obj := range info.Uses {
		if obj.Pkg() == facade {
			c.mark(obj)
		}
	}
	return nil
}

func (c *checker) mark(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if c.decls[obj] != nil && !c.live[obj] {
		c.live[obj] = true
		c.queue = append(c.queue, obj)
	}
}

func (c *checker) useInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		c.ifaces[it] = true
	}
}

// spread follows references from the queued declarations until nothing
// new turns live, alternating with the interface rule.
func (c *checker) spread() {
	for {
		for len(c.queue) > 0 {
			obj := c.queue[0]
			c.queue = c.queue[1:]
			d := c.decls[obj]
			for _, it := range d.ifaces {
				c.useInterface(it)
			}
			for _, ref := range d.refs {
				c.mark(ref)
				if tn, ok := ref.(*types.TypeName); ok {
					c.useInterface(tn.Type())
				}
				if p := ref.Pkg(); p != nil && !c.inModule(p.Path()) && !c.std[p] {
					c.std[p] = true
					for _, name := range p.Scope().Names() {
						if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
							c.useInterface(tn.Type())
						}
					}
				}
			}
		}
		if !c.satisfy() {
			return
		}
	}
}

// satisfy marks the methods through which a live type satisfies an
// interface live code can call, and reports whether any was new.
func (c *checker) satisfy() bool {
	before := len(c.live)
	for obj := range c.live {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for it := range c.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				c.mark(mset.Lookup(m.Pkg(), m.Name()).Obj())
			}
		}
	}
	return len(c.live) > before
}

// reported says whether obj is a function, method or type declared
// where this check rules: under internal/ or in the root package.
func (c *checker) reported(obj types.Object) bool {
	pkg := obj.Pkg().Path()
	return kind(obj) != "" && (pkg == c.module || strings.HasPrefix(pkg, c.module+"/internal/"))
}

// receiver returns the named type obj is a method of, or nil.
func receiver(obj types.Object) *types.Named {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, _ := t.(*types.Named)
			return n
		}
	}
	return nil
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.TypeName:
		return "type"
	case *types.Func:
		if receiver(obj) != nil {
			return "method"
		}
		return "func"
	}
	return "" // a variable or constant
}

// qualified is the name the keep list and the output use:
// package.Func, package.Type or package.Type.Method.
func qualified(obj types.Object) string {
	if recv := receiver(obj); recv != nil {
		return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
