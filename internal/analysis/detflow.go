package analysis

import (
	"go/ast"
	"go/types"
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

// Detflow keeps the deterministic packages a pure function of the
// seed. It forbids two inputs outright: wall-clock reads (time.Now,
// time.Since; virtual time comes from sim.Engine.Now, and a deliberate
// wall-clock span carries a //lbvet:ignore detflow annotation, which is
// the allowlist) and the global math/rand source (randomness flows from
// a seeded *rand.Rand). The third input, iteration and identity order,
// it follows with the taint engine (taint.go) over the per-function CFG
// (cfg.go), so order laundered through locals and in-package helpers is
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
// sequence-tainted values; sim.Engine scheduling or metrics calls whose
// arguments carry either taint kind; and sequence-tainted stores into
// anything but a function-local variable (a field, an element, a
// pointer target, a package variable) still unsorted when the function
// returns. Sorting (sort.*, slices' Sort*, or an in-package helper
// whose name contains "sort" or "canon") cleanses.
var Detflow = &Analyzer{
	Name:  "detflow",
	Doc:   "forbid wall clocks and global math/rand, and track map-order and pointer-identity taint to returns, sends, stores, engine events and metrics",
	Scope: DeterministicPkgs,
	Run:   runDetflow,
}

func runDetflow(pass *Pass) {
	hooks := taintHooks{
		sourceCall: detflowSource(pass),
		sink:       detflowSink(pass),
		exit:       detflowExit(pass),
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, x)
			case *ast.FuncDecl, *ast.FuncLit:
				if funcBody(x) != nil {
					pass.taintFunc(x, hooks)
				}
			}
			return true
		})
	}
}

// globalRandAllowed are the math/rand top-level functions that do not
// touch the package-global source.
var globalRandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

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
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: use sim.Engine.Now virtual time (annotate deliberate wall-clock metric spans with //lbvet:ignore detflow <reason>)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the global math/rand source: draw from a seeded *rand.Rand (sim.Engine.Rand or rand.New) so runs stay reproducible", fn.Name())
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
// calls. Closure interiors are skipped: they are analyzed as functions
// of their own.
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

// detflowExit reports the stores a function leaves behind: a sequence
// built in nondeterministic order, put where its caller or a later call
// reads it, and not sorted before the function returned.
func detflowExit(pass *Pass) func(state taintState) {
	return func(state taintState) {
		for _, f := range state {
			if f.store.IsValid() {
				pass.Reportf(f.store, "stores a value %s outside the function's locals and leaves it unsorted: later reads see a run-dependent order; sort it before returning or iterate a sorted key slice", f.why)
			}
		}
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
