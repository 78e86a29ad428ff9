// Command deadcheck lists every exported function, method and type
// declared in a non-test file under internal/ whose name is used in no
// non-test file of the module: code only its own tests reach. The
// reading is by name (go/parser, no type information), so a dead
// declaration that shares its name with a live one is missed — it
// under-reports, and never flags code that runs. CI fails on any output.
//
//	go run ./scripts/deadcheck [module root, default "."]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ifaceMethods are called through fmt.Stringer, error, net.Conn,
// net.PacketConn, net.Listener or net.Addr, never by name.
var ifaceMethods = map[string]bool{
	"String": true, "Error": true, "Network": true, "Addr": true, "Accept": true,
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true, "Close": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// keep is what stays on purpose although no non-test file names it.
var keep = map[string]string{
	"InitiateTo":      "paper §3.3: a customer opens the conduit to an outside host (reverse key setup)",
	"ReleaseDynAddr":  "paper §3.4: a dynamic address returns to the pool when its flow ends",
	"DynFlowOf":       "paper §3.4: which flow holds a dynamic address",
	"AddAddr":         "paper §3.4: the hosting node claims a dynamic address (what Config.OnDynAlloc is for)",
	"RemoveAddr":      "paper §3.4: the hosting node's side of ReleaseDynAddr",
	"FlowOf":          "paper §3.4: how an RSVP router reads a FlowID off a packet; the anonymized-flows-collapse test runs on it",
	"SetPoolDebug":    "fault detection: poisons recycled packets so a use-after-release shows",
	"Retain":          "the other half of the refcount Packet.Release enforces (double release panics)",
	"NewDPIBench":     "fixture of BenchmarkDPIFeatureUpdate/DPIClassify/CloakFrame, which have no twin in benchmark/",
	"NewAuditBench":   "fixture of BenchmarkAuditTrial/AuditReportCodec, which have no twin in benchmark/",
	"DialUDP":         "fixture of BenchmarkSimnetUDPEcho and the facade integration test: the connected (net.Conn) half of UDPConn",
	"SessionFromKeys": "cross-package test helper: endhost and onion tests build an e2e session without the handshake",
	// Dead, ≤ 8 lines each, each pinned by one test of its own: left for
	// the next pass so this one stays inside its test-removal allowance.
	"SessionKeyAt":      "deferred (TestSessionKeyAt)",
	"NewRandomSchedule": "deferred (TestNewRandomSchedule)",
	"Extend":            "deferred (pushback.TestLimiterExtend)",
}

func main() {
	root := filepath.Clean(append(os.Args[1:], ".")[0])
	fset := token.NewFileSet()
	decls := map[string][]string{} // exported name -> "file:line: kind" of each internal/ declaration
	uses := map[string]int{}       // identifier -> occurrences that are not those declarations
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		declared := map[*ast.Ident]bool{}
		note := func(id *ast.Ident, kind string) {
			if id.IsExported() && strings.HasPrefix(rel, "internal/") {
				declared[id] = true
				decls[id.Name] = append(decls[id.Name], fmt.Sprintf("%s:%d: %s", rel, fset.Position(id.Pos()).Line, kind))
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					note(d.Name, "func")
				} else if !ifaceMethods[d.Name.Name] {
					note(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						note(ts.Name, "type")
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	var out []string
	for name, where := range decls {
		if uses[name] == 0 && keep[name] == "" {
			for _, w := range where {
				out = append(out, fmt.Sprintf("%s %s is used by no non-test file\n", w, name))
			}
		}
	}
	sort.Strings(out)
	if fmt.Print(strings.Join(out, "")); len(out) > 0 {
		os.Exit(1)
	}
}
