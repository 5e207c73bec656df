package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// setupDrawsFile is the one file that draws node capacities and
// virtual-server loads from the engine stream: workload.NewRing,
// workload.AssignLoads and workload.Join.
const setupDrawsFile = "internal/workload/ring.go"

// TestSetupDrawsInOneFile parses every Go file of the module, tests
// included, outside setupDrawsFile, bench/ and testdata directories,
// and fails on each capacity draw (X.Sample(s)) or load draw
// (X.Load(s, f)) whose stream s is the engine's: a call X.Rand(), or a
// name the file assigns one to. A ring built by hand makes those draws
// in an order of its own; through the constructor, the set-up draw
// order is written once.
func TestSetupDrawsInOneFile(t *testing.T) {
	root := filepath.Join("..", "..")
	isRandCall := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Rand" && len(call.Args) == 0
	}
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && (rel == "bench" || d.Name() == "testdata" || rel != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(rel, ".go") || rel == setupDrawsFile:
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		stream := map[string]bool{} // names assigned an X.Rand() call
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isRandCall(rhs) {
						stream[id.Name] = true
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !(sel.Sel.Name == "Sample" && len(n.Args) == 1 || sel.Sel.Name == "Load" && len(n.Args) == 2) {
					break
				}
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok && stream[id.Name] || isRandCall(n.Args[0]) {
					t.Errorf("%s: draws a capacity or a load from the engine stream; build the ring with workload.NewRing or workload.Join (%s)",
						fset.Position(n.Pos()), setupDrawsFile)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files to check")
	}
}
