package analysis

import (
	"go/ast"
	"go/types"
)

// Detflow is the dataflow upgrade of nondeterminism: instead of
// matching forbidden constructs at their use site, it follows values
// with the taint engine (taint.go) over the per-function CFG (cfg.go),
// so nondeterminism laundered through locals and in-package helpers is
// still caught:
//
//	var out []ident.ID
//	for id := range n.objects {        // order taint on id
//		out = push(out, id)            // helper-mediated append:
//	}                                  //   summary says param→result
//	return out                         // sequence-tainted return: flagged
//
// Sources are map-iteration order (range loop variables) and pointer
// identity (uintptr conversions of pointers, reflect Pointer/UnsafePointer).
// Order taint becomes sequence taint only through order-sensitive
// accumulation — append (direct or through a summarized helper), string
// concatenation, float accumulation — so commutative reductions over
// map values stay clean. Sinks: returns and channel sends of
// sequence-tainted values, and sim.Engine scheduling or metrics calls
// whose arguments carry either taint kind. Sorting (sort.*, slices'
// Sort*, or an in-package helper whose name contains "sort" or "canon")
// cleanses.
var Detflow = &Analyzer{
	Name:  "detflow",
	Doc:   "track map-order and pointer-identity taint through locals and helpers to returns, sends, engine events and metrics",
	Scope: DeterministicPkgs,
	Run:   runDetflow,
}

func runDetflow(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pass.taintFunc(fd, taintHooks{
				sourceCall: detflowSource(pass),
				sink:       detflowSink(pass),
			})
		}
	}
}

// detflowSource recognizes fresh taint sources that are calls: pointer
// identity observed through a uintptr conversion or the reflect
// Pointer/UnsafePointer methods. (Map-range order, the other source, is
// introduced by the engine itself at range heads.)
func detflowSource(pass *Pass) func(call *ast.CallExpr) taintFact {
	return func(call *ast.CallExpr) taintFact {
		if pass.isConversion(call) && len(call.Args) == 1 {
			tv, ok := pass.Info.Types[call.Fun]
			if ok {
				if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Kind() == types.Uintptr {
					if at, ok := pass.Info.Types[call.Args[0]]; ok && isPointerish(at.Type) {
						return taintFact{kind: kindOrder, why: "pointer identity (uintptr conversion)"}
					}
				}
			}
			return taintFact{}
		}
		if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "reflect" {
			if fn.Name() == "Pointer" || fn.Name() == "UnsafePointer" {
				return taintFact{kind: kindOrder, why: "pointer identity (reflect." + fn.Name() + ")"}
			}
		}
		return taintFact{}
	}
}

func isPointerish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// detflowSink inspects each CFG node against the taint state in force
// before it and reports sequence-tainted returns and channel sends, and
// tainted arguments (either kind) to engine scheduling and metrics
// calls. Closure interiors are skipped: their bodies execute under a
// different state.
func detflowSink(pass *Pass) func(n ast.Node, state taintState) {
	return func(n ast.Node, state taintState) {
		// The RangeStmt head node contains its whole body; the body
		// statements are sink-checked in their own blocks.
		if rng, ok := n.(*ast.RangeStmt); ok {
			n = rng.X
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if f, tainted := pass.exprTaint(r, state); tainted && f.kind == kindSeq {
						pass.Reportf(r.Pos(), "returns a value %s: the result is nondeterministic; sort (or canonicalize) before returning", f.why)
					}
				}
			case *ast.SendStmt:
				if f, tainted := pass.exprTaint(x.Value, state); tainted && f.kind == kindSeq {
					pass.Reportf(x.Value.Pos(), "sends a value %s: the result is nondeterministic; sort (or canonicalize) before sending", f.why)
				}
			case *ast.CallExpr:
				detflowCheckCall(pass, x, state)
			}
			return true
		})
	}
}

// detflowCheckCall flags tainted arguments reaching the event engine
// (where insertion order breaks same-tick determinism) or a metrics
// method (where outputs become run-dependent).
func detflowCheckCall(pass *Pass, call *ast.CallExpr, state taintState) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	var what string
	switch {
	case isEngineSink(fn):
		what = "sim.Engine." + fn.Name()
	case fn.Pkg() != nil && hasPathSuffix(fn.Pkg().Path(), "internal/metrics"):
		what = "metrics call " + fn.Name()
	default:
		return
	}
	for _, arg := range call.Args {
		if f, tainted := pass.exprTaint(arg, state); tainted {
			pass.Reportf(arg.Pos(), "argument to %s derived from %s: same-tick event and metric ordering becomes run-dependent; iterate a sorted snapshot instead", what, f.why)
			return
		}
	}
}
