package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pointerKeyExempt lists the packages under internal/ whose non-test
// files may declare a map keyed by a pointer, each with its reason.
// Every other package keeps its per-node and per-VS state in slices
// indexed by dense handles (ktree.Handle.Index, chord.VServer.Slot,
// chord.Node.Index), so a new package is covered without a list edit.
var pointerKeyExempt = map[string]string{
	"analysis": "go/types and go/ast objects have no dense handle",
	"wire":     "a set of live connections, which have no dense handle",
}

// TestNoPointerKeyedMaps parses the non-test Go files of every package
// under internal/ and fails on every map type whose key is a pointer
// outside pointerKeyExempt, and on an exemption no map needs any more.
func TestNoPointerKeyedMaps(t *testing.T) {
	dirs, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		_, exempt := pointerKeyExempt[pkg]
		keyed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok {
					if _, ptr := m.Key.(*ast.StarExpr); ptr {
						keyed++
						if !exempt {
							t.Errorf("%s: %s is keyed by a pointer; index a slice by a dense handle instead",
								fset.Position(m.Pos()), types.ExprString(m))
						}
					}
				}
				return true
			})
		}
		if exempt && keyed == 0 {
			t.Errorf("internal/%s declares no pointer-keyed map; drop its exemption", pkg)
		}
		if len(files) > 0 {
			checked++
		}
	}
	if checked < len(pointerKeyExempt)+1 {
		t.Errorf("checked %d packages under internal/, want more than the exempt ones", checked)
	}
}
