package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterministicPkgs are the packages whose behaviour must be a pure
// function of the seed: the simulation engine and everything that runs
// on it. Matched by import-path suffix.
var DeterministicPkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/lbnode",
	"internal/protocol",
	"internal/ktree",
	"internal/exp",
	"internal/workload",
	"internal/faults",
	"internal/serve",
}

// Nondeterminism forbids the three ways nondeterminism has crept (or
// would creep) into the deterministic packages:
//
//   - wall-clock reads (time.Now, time.Since) — virtual time comes from
//     sim.Engine.Now. Wall-clock timing of a simulation (cmd/lbsim's
//     -fig scale, bench/) lives outside these packages and is handed in
//     as a clock; a deliberate wall-clock read inside them must carry
//     a //lbvet:ignore nondeterminism annotation, which is the explicit
//     allowlist.
//   - the global math/rand source (rand.Intn, rand.Shuffle, …) — all
//     randomness must flow from a seeded *rand.Rand (rand.New is fine).
//   - results fed from unordered map iteration: appending to a slice
//     under `range m` without sorting afterwards, accumulating floats
//     (addition isn't associative), or scheduling engine events in map
//     order.
var Nondeterminism = &Analyzer{
	Name:  "nondeterminism",
	Doc:   "forbid wall clocks, global math/rand and order-sensitive map iteration in the deterministic packages",
	Scope: DeterministicPkgs,
	Run:   runNondeterminism,
}

// globalRandAllowed are the math/rand top-level functions that do not
// touch the package-global source.
var globalRandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func runNondeterminism(pass *Pass) {
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, x)
			case *ast.RangeStmt:
				checkMapRange(pass, x, stack)
			}
			return true
		})
	}
}

// checkForbiddenCall flags wall-clock reads and global math/rand use.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: use sim.Engine.Now virtual time (annotate deliberate wall-clock metric spans with //lbvet:ignore nondeterminism <reason>)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the global math/rand source: draw from a seeded *rand.Rand (sim.Engine.Rand or rand.New) so runs stay reproducible", fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive work done under `range` over a
// map: appends that are never sorted, float accumulation, and engine
// event scheduling.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(stack)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, fn, x)
		case *ast.CallExpr:
			cf := calleeFunc(pass.Info, x)
			if isEngineSink(cf) {
				pass.Reportf(x.Pos(), "%s inside `range` over a map schedules events in map-iteration order; iterate a sorted key slice instead", cf.Name())
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, fn ast.Node, as *ast.AssignStmt) {
	switch as.Tok.String() {
	case "+=", "-=":
		if t, ok := pass.Info.Types[as.Lhs[0]]; ok {
			if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				pass.Reportf(as.Pos(), "float accumulation into %s under `range` over a map: float addition is order-sensitive; iterate a sorted key slice", exprString(as.Lhs[0]))
			}
		}
	case "=", ":=":
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			target := as.Lhs[i]
			if sortedAfter(pass, fn, rng, target) {
				continue
			}
			pass.Reportf(as.Pos(), "append to %s under `range` over a map builds results in map-iteration order; sort %s afterwards or iterate a sorted key slice", exprString(target), exprString(target))
		}
	}
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, after the range loop and inside the same
// function, the appended-to expression is passed through a sort: either
// a sort-package call taking it (sort.Slice(x, …), sort.Strings(x)) or
// a sort-named method/helper rooted at the same variable (v.sort()
// covering v.lights).
func sortedAfter(pass *Pass, fn ast.Node, rng *ast.RangeStmt, target ast.Expr) bool {
	if fn == nil {
		return false
	}
	tstr := exprString(target)
	troot := rootIdent(target)
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found || n == nil || n.End() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cf := calleeFunc(pass.Info, call)
		if cf == nil {
			return true
		}
		isSortPkg := cf.Pkg() != nil && cf.Pkg().Path() == "sort"
		sortNamed := strings.Contains(strings.ToLower(cf.Name()), "sort")
		if !isSortPkg && !sortNamed {
			return true
		}
		for _, arg := range call.Args {
			if exprString(arg) == tstr {
				found = true
				return false
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sortNamed && troot != nil {
			if r := rootIdent(sel.X); r != nil && r.Name == troot.Name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
