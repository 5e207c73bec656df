package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RandContract enforces the sim.Engine.Rand single-goroutine contract:
// inside code that runs on another goroutine — the body (and argument
// list) of a `go` statement, or a worker callback handed to
// internal/par — neither the engine RNG nor any *math/rand.Rand
// captured from the enclosing scope may be touched. The same contract
// covers *faults.Injector: its drop/duplicate counters and its restart
// *rand.Rand are unsynchronised state behind method calls, so a shared
// injector consulted from a worker is the engine-RNG race wearing a
// different type. The sanctioned pattern is a per-worker
// engine/RNG/injector (or injector Fork) made by the parent or inside
// the fan-out, which the analyzer recognises: a value declared inside
// the concurrent region is fine.
var RandContract = &Analyzer{
	Name: "randcontract",
	Doc:  "flag sim.Engine.Rand, captured *rand.Rand and captured *faults.Injector use inside go statements and par worker callbacks",
	Run:  runRandContract,
}

func runRandContract(pass *Pass) {
	for _, file := range pass.Files {
		regions := pass.ConcurrentRegions(file)
		if len(regions) == 0 {
			continue
		}
		reported := make(map[token.Pos]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkEngineRandCall(pass, x, regions, reported)
				checkInjectorCall(pass, x, regions, reported)
			case *ast.Ident, *ast.SelectorExpr:
				checkCapturedRand(pass, x.(ast.Expr), regions, reported)
			}
			return true
		})
	}
}

// checkEngineRandCall flags X.Rand() calls on a sim.Engine that is
// captured from outside the concurrent region.
func checkEngineRandCall(pass *Pass, call *ast.CallExpr, regions []concurrentRegion, reported map[token.Pos]bool) {
	fn := calleeFunc(pass.Info, call)
	if !methodOn(fn, "internal/sim", "Engine", "Rand") {
		return
	}
	region := regionOf(regions, call.Pos())
	if region == nil || reported[call.Pos()] {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if declaredInside(pass, sel.X, region) {
		return // per-worker engine: the sanctioned pattern
	}
	reported[call.Pos()] = true
	pass.Reportf(call.Pos(), "%s.Rand() inside a %s: the engine RNG is single-goroutine; give each worker its own engine/RNG seeded before the fan-out", exprString(sel.X), region.kind)
}

// checkInjectorCall flags method calls on a *faults.Injector captured
// from outside the concurrent region: the injector's counters and
// restart stream are unsynchronised, so sharing one across workers
// races exactly like sharing the engine RNG.
func checkInjectorCall(pass *Pass, call *ast.CallExpr, regions []concurrentRegion, reported map[token.Pos]bool) {
	fn := calleeFunc(pass.Info, call)
	if !methodOnType(fn, "internal/faults", "Injector") {
		return
	}
	region := regionOf(regions, call.Pos())
	if region == nil || reported[call.Pos()] {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if declaredInside(pass, sel.X, region) {
		return // per-trial injector: the sanctioned pattern
	}
	reported[call.Pos()] = true
	pass.Reportf(call.Pos(), "%s.%s() on a captured *faults.Injector inside a %s: an injector is single-goroutine; build one injector per trial engine inside the fan-out", exprString(sel.X), fn.Name(), region.kind)
}

// checkCapturedRand flags reads of *math/rand.Rand values that are
// captured from outside the concurrent region (locals and fields
// alike).
func checkCapturedRand(pass *Pass, e ast.Expr, regions []concurrentRegion, reported map[token.Pos]bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || !isMathRandPtr(tv.Type) {
		return
	}
	// Only uses, not the defining identifier of a worker-local RNG.
	if id, ok := e.(*ast.Ident); ok {
		if pass.Info.Defs[id] != nil {
			return
		}
	}
	region := regionOf(regions, e.Pos())
	if region == nil || reported[e.Pos()] {
		return
	}
	if declaredInside(pass, e, region) {
		return
	}
	reported[e.Pos()] = true
	pass.Reportf(e.Pos(), "captured *rand.Rand %s used inside a %s: RNGs are single-goroutine; create one per worker from a derived seed", exprString(e), region.kind)
}

func isMathRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return (p == "math/rand" || p == "math/rand/v2") && named.Obj().Name() == "Rand"
}
