package analysis

import (
	"go/ast"
	"go/token"
)

// IdentCompare forbids raw ordering/difference arithmetic on ident.ID
// outside internal/ident. The identifier space is a ring of integers
// mod 2^32: `a < b` and `a - b` silently give the wrong answer when the
// arc between a and b crosses zero, which is exactly the case overlay
// maintenance must survive. Callers should use ident.ID.Dist/Between
// and the Region helpers; deliberate total-order uses (sorting,
// searching and merging ID-sorted arrays, tiebreaks) go through
// ident.Compare or ident.Less, so cmp.Compare and cmp.Less on IDs are
// flagged too.
var IdentCompare = &Analyzer{
	Name: "identcompare",
	Doc:  "flag raw </>/− arithmetic and cmp.Compare/Less on ident.ID outside internal/ident (breaks at ring wrap-around)",
	// The one package allowed to do raw ID arithmetic.
	Exclude: []string{"internal/ident"},
	Run:     runIdentCompare,
}

func runIdentCompare(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkIdentBinary(pass, x)
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, x)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "cmp" || (fn.Name() != "Compare" && fn.Name() != "Less") {
					return true
				}
				for _, arg := range x.Args {
					if isIdentID(pass, arg) {
						pass.Reportf(x.Pos(), "cmp.%s on ident.ID orders identifiers as plain integers; use ident.Compare or ident.Less for a deliberate total order, or ident.ID.Dist/Between or Region.Contains for ring order", fn.Name())
						break
					}
				}
			}
			return true
		})
	}
}

func checkIdentBinary(pass *Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.SUB:
	default:
		return
	}
	if !isIdentID(pass, be.X) && !isIdentID(pass, be.Y) {
		return
	}
	verb := "comparison"
	hint := "ident.ID.Dist/Between or Region.Contains, or ident.Compare or ident.Less for a deliberate total order"
	if be.Op == token.SUB {
		verb = "subtraction"
		hint = "ident.ID.Dist (clockwise distance)"
	}
	pass.Reportf(be.OpPos, "raw ident.ID %s %q wraps incorrectly at the ring boundary; use %s", verb, exprString(be), hint)
}

func isIdentID(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && isPkgType(tv.Type, "internal/ident", "ID")
}
