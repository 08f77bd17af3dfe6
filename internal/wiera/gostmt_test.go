package wiera

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// longLivedGo names every function of the data-plane packages allowed to
// hold a `go` statement, and why that goroutine is not per-op work. Anything
// an operation starts — a fan-out leg, an async release, a repair, a TCP
// request handler — runs through spawn.Go or eachPeer instead, on a warm
// pool goroutine rather than a fresh stack it would regrow by copying.
var longLivedGo = map[string]string{
	"transport.ListenTCP":             "the accept loop, one per server",
	"transport.(*TCPClient).acquire":  "demux, one response loop per dialed connection",
	"wiera.(*updateQueue).start":      "the queue's flush loop, one per node",
	"wiera.(*heatTracker).start":      "the promotion/demotion loop, one per node",
	"wiera.(*Server).Start":           "the heartbeat loop, one per server",
	"wiera.(*changeTrigger).evaluate": "a policy-change request, at most one in flight per monitor",
	"wiera.(*Node).handle":            "MethodShutdown closes the node, once per node",
}

// TestNoPerOpGoStatements fails on a `go` statement in the non-test files of
// internal/wiera and internal/transport outside the functions longLivedGo
// names, and on an entry of longLivedGo that no longer starts a goroutine.
func TestNoPerOpGoStatements(t *testing.T) {
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../transport"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := f.Name.Name + "." + funcName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						found[name] = true
						if _, allowed := longLivedGo[name]; !allowed {
							t.Errorf("%s: go statement in %s: per-op work runs through spawn.Go, or the function joins longLivedGo with its reason",
								fset.Position(g.Pos()), name)
						}
					}
					return true
				})
			}
		}
	}
	var stale []string
	for name := range longLivedGo {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("longLivedGo names %s, which starts no goroutine any more", name)
	}
}

// funcName is a declaration's name as the allowlist spells it: Name, or
// (*Recv).Name / Recv.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		return "(*" + typeName(star.X) + ")." + fd.Name.Name
	}
	return typeName(typ) + "." + fd.Name.Name
}

func typeName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
