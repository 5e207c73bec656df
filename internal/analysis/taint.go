package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the dataflow half of the engine: forward may-taint
// propagation over the CFG of cfg.go, used by detflow. Two taint kinds
// distinguish *order* taint (a value whose identity depends on
// map-iteration order — a range-over-map loop variable, a value
// computed from one) from *sequence* taint (a container whose element
// order is nondeterministic — a slice built by appending under a map
// range, directly or through an in-package helper). Order taint only
// escalates into sequence taint through order-sensitive accumulation
// (append, string or float +=); commutative accumulation (an int sum
// over map values) stays clean, which is what separates this analysis
// from blanket map-range bans. Sort calls (and in-package helpers
// whose name says they sort or canonicalize) are sanitizers: they kill
// the taint of their argument, making the sorted-results idiom check
// clean without annotations.
//
// The analysis is intra-procedural with one interprocedural device:
// flowSummaries records, per in-package function, which parameters
// flow into its results and which are sorted on the way, so a helper
// that launders an append (`out = push(out, k)`) still propagates and
// a helper that canonicalizes (`return sorted(out)`) still cleanses.

type taintKind int

const (
	// kindOrder marks a scalar derived from map-iteration order.
	kindOrder taintKind = iota + 1
	// kindSeq marks a sequence whose element order is nondeterministic.
	kindSeq
)

// taintFact is why one object is tainted.
type taintFact struct {
	kind taintKind
	why  string
	// store is where a sequence was stored into something other than a
	// function-local variable (a field, an element, a pointer target, a
	// package variable); taintHooks.exit reports it if it survives.
	store token.Pos
}

// taintState maps tainted objects to facts. States are small; copying
// at joins is fine.
type taintState map[types.Object]taintFact

func (s taintState) clone() taintState {
	out := make(taintState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join unions other into s, keeping the stronger kind, and reports
// whether s changed.
func (s taintState) join(other taintState) bool {
	changed := false
	for obj, f := range other {
		cur, ok := s[obj]
		if !ok || f.kind > cur.kind {
			s[obj] = f
			changed = true
		}
	}
	return changed
}

func (s taintState) equal(other taintState) bool {
	if len(s) != len(other) {
		return false
	}
	for obj, f := range s {
		of, ok := other[obj]
		if !ok || of.kind != f.kind {
			return false
		}
	}
	return true
}

// taintHooks parameterize the engine: detflow wires the real policy,
// the unit tests wire toy sources/sinks.
type taintHooks struct {
	// sourceCall returns a taint fact for calls that are fresh sources
	// (pointer-identity reads; the tests' src()). Zero kind means not a
	// source.
	sourceCall func(call *ast.CallExpr) taintFact
	// sink is invoked for every node with the state in force before
	// it, in a final pass after the fixpoint; policies report there.
	sink func(n ast.Node, state taintState)
	// exit, when set, is invoked once with the state at the function's
	// exit.
	exit func(state taintState)
}

// taintFunc runs the forward taint fixpoint over one function and then
// replays each block against its stable entry state, invoking
// hooks.sink for every node.
func (p *Pass) taintFunc(fn ast.Node, hooks taintHooks) {
	g := p.FuncCFG(fn)
	in := make([]taintState, len(g.Blocks))
	out := make([]taintState, len(g.Blocks))
	for i := range g.Blocks {
		in[i] = make(taintState)
		out[i] = make(taintState)
	}
	// Iterate to fixpoint. Reverse-postorder would converge faster;
	// round-robin is plenty for function-sized graphs.
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			state := make(taintState)
			for _, pred := range g.Preds(b) {
				state.join(out[pred.Index])
			}
			in[i] = state
			work := state.clone()
			for _, n := range b.Nodes {
				p.taintTransfer(n, work, hooks)
			}
			if !work.equal(out[i]) {
				out[i] = work
				changed = true
			}
		}
	}
	for i, b := range g.Blocks {
		work := in[i].clone()
		for _, n := range b.Nodes {
			hooks.sink(n, work)
			p.taintTransfer(n, work, hooks)
		}
	}
	if hooks.exit != nil {
		hooks.exit(in[g.Exit.Index])
	}
}

// taintTransfer applies one node's effect to state.
func (p *Pass) taintTransfer(n ast.Node, state taintState, hooks taintHooks) {
	// Sanitizers anywhere in the node (statement-level granularity).
	// A RangeStmt sits in the loop-head block but contains its whole
	// body, whose statements live in their own blocks — scan only the
	// range operand there. Closure bodies run elsewhere; skip them.
	scan := n
	if rng, ok := n.(*ast.RangeStmt); ok {
		scan = rng.X
	}
	ast.Inspect(scan, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			for _, cleansed := range p.sanitizerTargets(call) {
				p.cleanse(cleansed, state)
			}
		}
		return true
	})

	switch x := n.(type) {
	case *ast.RangeStmt:
		p.taintRangeHead(x, state)
	case *ast.AssignStmt:
		p.taintAssign(x, state, hooks)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						p.taintBind(name, vs.Values[i], state, hooks, false)
					}
				}
			}
		}
	}
}

// taintRangeHead taints the loop variables of order-sensitive ranges:
// ranging over a map gives the key and value order taint; ranging over
// a sequence-tainted slice gives the element positional (order) taint.
func (p *Pass) taintRangeHead(rng *ast.RangeStmt, state taintState) {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return
	}
	var fact taintFact
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		fact = taintFact{kind: kindOrder, why: "map-iteration order"}
	} else if f, tainted := p.exprTaint(rng.X, state); tainted && f.kind == kindSeq {
		fact = taintFact{kind: kindOrder, why: f.why}
	} else {
		return
	}
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				state[obj] = fact
			} else if obj := p.Info.Uses[id]; obj != nil {
				state[obj] = fact
			}
		}
	}
}

// taintAssign handles `=`, `:=` and the accumulating ops.
func (p *Pass) taintAssign(as *ast.AssignStmt, state taintState, hooks taintHooks) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		// Order-sensitive accumulation: float arithmetic and string
		// concatenation escalate order taint into sequence taint;
		// integer accumulation is commutative and stays clean.
		lhs := as.Lhs[0]
		obj := p.exprObj(lhs)
		if obj == nil {
			return
		}
		f, tainted := p.exprTaint(as.Rhs[0], state)
		if !tainted {
			return
		}
		t, ok := p.Info.Types[lhs]
		if !ok {
			return
		}
		if b, ok := t.Type.Underlying().(*types.Basic); ok {
			switch {
			case f.kind == kindSeq:
				// already described; keep the original construction
				p.setTaint(lhs, obj, f, state)
			case b.Info()&types.IsFloat != 0:
				p.setTaint(lhs, obj, taintFact{kind: kindSeq, why: "float-accumulated in " + f.why}, state)
			case b.Info()&types.IsString != 0 && as.Tok == token.ADD_ASSIGN:
				p.setTaint(lhs, obj, taintFact{kind: kindSeq, why: "concatenated in " + f.why}, state)
			}
		}
		return
	case token.ASSIGN, token.DEFINE:
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			// Tuple assignment from one call: every lhs inherits.
			for _, lhs := range as.Lhs {
				p.taintBind(lhs, as.Rhs[0], state, hooks, true)
			}
			return
		}
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) {
				p.taintBind(lhs, as.Rhs[i], state, hooks, false)
			}
		}
	}
}

// taintBind assigns rhs's taint to the lvalue lhs: a tainted rhs
// taints it (setTaint), an untainted rhs strong-updates (kills) it
// unless it is an index lvalue.
func (p *Pass) taintBind(lhs, rhs ast.Expr, state taintState, hooks taintHooks, tuple bool) {
	obj := p.exprObj(lhs)
	if obj == nil {
		return
	}
	if f, tainted := p.taintOfRHS(rhs, state, hooks); tainted {
		p.setTaint(lhs, obj, f, state)
	} else if _, index := ast.Unparen(lhs).(*ast.IndexExpr); !index && !tuple {
		delete(state, obj) // strong update
	}
}

// setTaint binds f to obj, the object of the lvalue lhs. A sequence
// stored anywhere but a function-local variable records where, for
// taintHooks.exit. Other index lvalues (x[i] = v) leave the container
// as it was: the positions written are a deterministic set even when
// the loop order is not.
func (p *Pass) setTaint(lhs ast.Expr, obj types.Object, f taintFact, state taintState) {
	_, plain := ast.Unparen(lhs).(*ast.Ident)
	f.store = token.NoPos
	if f.kind == kindSeq && (!plain || obj.Parent() == p.Pkg.Scope()) {
		f.store = lhs.Pos()
	} else if _, index := ast.Unparen(lhs).(*ast.IndexExpr); index {
		return
	}
	state[obj] = f
}

// taintOfRHS decides the taint of an assigned value: a source call, a
// sequence built from tainted parts, or a value mentioning a tainted
// object.
func (p *Pass) taintOfRHS(rhs ast.Expr, state taintState, hooks taintHooks) (taintFact, bool) {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		if hooks.sourceCall != nil {
			if f := hooks.sourceCall(call); f.kind != 0 {
				return f, true
			}
		}
		if f, ok := p.callResultTaint(call, state, hooks); ok {
			return f, true
		}
		// A call result not covered by a summary does not propagate —
		// except conversions, which are the identity.
		if calleeFunc(p.Info, call) == nil && len(call.Args) == 1 && p.isConversion(call) {
			return p.exprTaint(call.Args[0], state)
		}
		return taintFact{}, false
	}
	return p.exprTaint(rhs, state, hooks)
}

// callResultTaint propagates taint through calls that build sequences:
// the builtin append, and in-package helpers whose flow summary says a
// parameter reaches the result.
func (p *Pass) callResultTaint(call *ast.CallExpr, state taintState, hooks taintHooks) (taintFact, bool) {
	if p.isBuiltin(call, "append") {
		for _, arg := range call.Args {
			if f, tainted := p.exprTaint(arg, state, hooks); tainted {
				if f.kind == kindSeq {
					return f, true // already a described sequence
				}
				return taintFact{kind: kindSeq, why: "built in " + f.why}, true
			}
		}
		return taintFact{}, false
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != p.Pkg {
		return taintFact{}, false
	}
	sum := p.flowSummary(fn)
	if sum == nil {
		return taintFact{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	worst := taintFact{}
	for i, arg := range call.Args {
		pi := i
		if sig != nil && sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi >= len(sum.flows) || !sum.flows[pi] {
			continue
		}
		f, tainted := p.exprTaint(arg, state, hooks)
		if !tainted {
			continue
		}
		if f.kind > worst.kind {
			worst = f
		}
	}
	if worst.kind == 0 {
		return taintFact{}, false
	}
	// A sequence-typed result assembled from order-tainted scalars is
	// itself sequence-tainted; otherwise the input kind carries over.
	// Sequence whys are already self-describing — don't re-wrap them
	// (the fixpoint revisits this call with its own prior result).
	if worst.kind == kindOrder {
		if isSequenceType(p.Info.Types[call].Type) {
			return taintFact{kind: kindSeq, why: "built in " + worst.why + " (via " + fn.Name() + ")"}, true
		}
		worst.why += " (via " + fn.Name() + ")"
	}
	return worst, true
}

// exprTaint reports whether e mentions a tainted object (or is itself
// a source/sequence-building call), and with what fact.
func (p *Pass) exprTaint(e ast.Expr, state taintState, hooksOpt ...taintHooks) (taintFact, bool) {
	var hooks taintHooks
	if len(hooksOpt) > 0 {
		hooks = hooksOpt[0]
	}
	var found taintFact
	ast.Inspect(e, func(n ast.Node) bool {
		if found.kind == kindSeq {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj != nil {
				if f, ok := state[obj]; ok && f.kind > found.kind {
					found = f
				}
			}
		case *ast.CallExpr:
			if hooks.sourceCall != nil {
				if f := hooks.sourceCall(x); f.kind != 0 && f.kind > found.kind {
					found = f
				}
			}
			if f, ok := p.callResultTaint(x, state, hooks); ok && f.kind > found.kind {
				found = f
			}
			// Conversions are the identity: look through them. Other
			// call results do not propagate their arguments' taint.
			return p.isConversion(x)
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found, found.kind != 0
}

// exprObj resolves an lvalue-ish expression to the object taint
// attaches to: a plain identifier's variable, or the field variable of
// a selector.
func (p *Pass) exprObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.Info.Defs[x]; obj != nil {
			return obj
		}
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	case *ast.StarExpr:
		return p.exprObj(x.X)
	case *ast.IndexExpr:
		return p.exprObj(x.X)
	case *ast.SliceExpr:
		return p.exprObj(x.X)
	}
	return nil
}

// sanitizerTargets returns the expressions a call cleanses: the
// arguments of sort-package (and slices-package Sort*) calls, and of
// in-package helpers or methods whose name contains "sort" or "canon".
func (p *Pass) sanitizerTargets(call *ast.CallExpr) []ast.Expr {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return nil
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "sort":
			// Everything in package sort except the Search* family
			// orders its argument (Strings, Ints, Float64s, Slice, …).
			if strings.HasPrefix(fn.Name(), "Search") {
				return nil
			}
			return call.Args
		case "slices":
			if strings.HasPrefix(fn.Name(), "Sort") {
				return call.Args
			}
			return nil
		}
	}
	lower := strings.ToLower(fn.Name())
	if !strings.Contains(lower, "sort") && !strings.Contains(lower, "canon") {
		return nil
	}
	targets := append([]ast.Expr{}, call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		targets = append(targets, sel.X)
	}
	return targets
}

// cleanse kills the taint of a sanitizer's target and, when the target
// is a struct or a pointer to one, of its fields: a method that sorts
// its receiver (v.sort()) sorts what the receiver holds.
func (p *Pass) cleanse(e ast.Expr, state taintState) {
	if obj := p.exprObj(e); obj != nil {
		delete(state, obj)
	}
	t := p.Info.TypeOf(e)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if t == nil {
		return
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			delete(state, st.Field(i))
		}
	}
}

func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isConversion reports whether call is a type conversion.
func (p *Pass) isConversion(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// isSequenceType reports whether t is a slice, map or string — a value
// whose element order is observable.
func isSequenceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// ---- in-package flow summaries ----

// flowSummary says, for one function, which parameters flow into its
// results. Parameters that are passed through a sort on the way are
// treated as cleansed (the canonicalizing-helper idiom).
type flowSummary struct {
	flows []bool
}

// flowSummary computes (and caches) the summary of an in-package
// function, or nil for functions without a declaration in this
// package. Recursive call chains are cut off conservatively: a
// function already being summarized contributes no flow.
func (p *Pass) flowSummary(fn *types.Func) *flowSummary {
	if sum, ok := p.facts.summaries[fn]; ok {
		return sum
	}
	if p.facts.inSummary[fn] {
		return nil
	}
	decl := p.funcDecl(fn)
	if decl == nil || decl.Body == nil {
		p.facts.summaries[fn] = nil
		return nil
	}
	p.facts.inSummary[fn] = true
	sum := p.computeFlowSummary(fn, decl)
	delete(p.facts.inSummary, fn)
	p.facts.summaries[fn] = sum
	return sum
}

// funcDecl finds the declaration of fn in the package files.
func (p *Pass) funcDecl(fn *types.Func) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if p.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// computeFlowSummary derives the parameter→result flows of one
// function with a small flow-insensitive fixpoint: the set of objects
// derived from each parameter grows through assignments (and appends
// and in-package calls) until stable; a parameter whose derived set is
// sorted before return is dropped; the flows are the parameters whose
// derived set intersects a return expression.
func (p *Pass) computeFlowSummary(fn *types.Func, decl *ast.FuncDecl) *flowSummary {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	nparams := sig.Params().Len()
	if nparams == 0 || sig.Results().Len() == 0 {
		return &flowSummary{flows: make([]bool, nparams)}
	}
	const maxTracked = 64
	if nparams > maxTracked {
		nparams = maxTracked
	}
	// derived[obj] is a bitmask of parameter indices obj descends from.
	derived := make(map[types.Object]uint64)
	for i := 0; i < nparams; i++ {
		derived[sig.Params().At(i)] = 1 << uint(i)
	}
	exprMask := func(e ast.Expr) uint64 {
		var mask uint64
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				obj := p.Info.Uses[x]
				if obj == nil {
					obj = p.Info.Defs[x]
				}
				mask |= derived[obj]
			case *ast.CallExpr:
				if p.isBuiltin(x, "append") || p.isConversion(x) {
					return true // args flow through
				}
				if callee := calleeFunc(p.Info, x); callee != nil && callee.Pkg() == p.Pkg {
					if sub := p.flowSummary(callee); sub != nil {
						csig, _ := callee.Type().(*types.Signature)
						for i, arg := range x.Args {
							pi := i
							if csig != nil && csig.Variadic() && pi >= csig.Params().Len() {
								pi = csig.Params().Len() - 1
							}
							if pi < len(sub.flows) && sub.flows[pi] {
								var sm uint64
								ast.Inspect(arg, func(m ast.Node) bool {
									if id, ok := m.(*ast.Ident); ok {
										sm |= derived[p.Info.Uses[id]]
									}
									return true
								})
								mask |= sm
							}
						}
					}
				}
				return false
			case *ast.FuncLit:
				return false
			}
			return true
		})
		return mask
	}
	for iter := 0; iter < 8; iter++ {
		changed := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				var rhs ast.Expr
				switch {
				case i < len(as.Rhs) && len(as.Rhs) == len(as.Lhs):
					rhs = as.Rhs[i]
				case len(as.Rhs) == 1:
					rhs = as.Rhs[0]
				default:
					continue
				}
				obj := p.exprObj(lhs)
				if obj == nil {
					continue
				}
				m := exprMask(rhs)
				if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
					m |= exprMask(lhs) // accumulating ops keep their own mask
				}
				if derived[obj]&m != m {
					derived[obj] |= m
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	// Sort calls cleanse the parameters whose derivatives they touch.
	var sorted uint64
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, t := range p.sanitizerTargets(call) {
			if obj := p.exprObj(t); obj != nil {
				sorted |= derived[obj]
			}
		}
		return true
	})
	var resultMask uint64
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			resultMask |= exprMask(r)
		}
		return true
	})
	resultMask &^= sorted
	flows := make([]bool, nparams)
	for i := 0; i < nparams; i++ {
		flows[i] = resultMask&(1<<uint(i)) != 0
	}
	return &flowSummary{flows: flows}
}
