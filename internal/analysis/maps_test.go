package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// pointerKeyFree lists the packages whose non-test files declare no map
// keyed by a pointer: their per-node and per-VS state lives in slices
// indexed by dense handles (ktree.Handle.Index, chord.VServer.Slot,
// chord.Node.Index). protocol and lbnode join the list when their last
// such maps go.
var pointerKeyFree = []string{"ktree", "core"}

// TestNoPointerKeyedMaps parses the non-test Go files of each package in
// pointerKeyFree and fails on every map type whose key is a pointer.
func TestNoPointerKeyedMaps(t *testing.T) {
	for _, pkg := range pointerKeyFree {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok {
					if _, ptr := m.Key.(*ast.StarExpr); ptr {
						t.Errorf("%s: %s is keyed by a pointer; index a slice by a dense handle instead",
							fset.Position(m.Pos()), types.ExprString(m))
					}
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("internal/%s: no Go files to check", pkg)
		}
	}
}
