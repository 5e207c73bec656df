package analysis

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"
)

// taintTestSrc is one package holding every engine test case plus the
// toy helpers: src() is the (hook-recognized) taint source, use()/
// useSlice() are the sinks the test observes, canon() is a sanitizer by
// name, and pass1/drop/viaSort exercise the flow summaries.
const taintTestSrc = `package taintcase

import "sort"

func src() int        { return 1 }
func use(x int)       {}
func useSlice(x []int) {}
func canon(x int)     {}

func pass1(a int) int { return a }
func drop(a int) int  { return 0 }
func viaSort(a []int) []int {
	sort.Ints(a)
	return a
}
func push(dst []int, v int) []int { return append(dst, v) }

func direct(c bool) {
	x := src()
	use(x)
}

func branchJoin(c bool) {
	x := 0
	if c {
		x = src()
	}
	use(x)
}

func branchKillBoth(c bool) {
	x := src()
	if c {
		x = 0
	} else {
		x = 1
	}
	use(x)
}

func loopCarried(n int) {
	x := 0
	for i := 0; i < n; i++ {
		use(x)
		x = src()
	}
}

func shortCircuit(c bool) {
	ok := c || src() > 0
	var x int
	if ok {
		x = src()
	}
	use(x)
}

func sanitized(c bool) {
	x := src()
	canon(x)
	use(x)
}

func strongUpdate(c bool) {
	x := src()
	x = 0
	use(x)
}

func helperFlows(c bool) {
	x := src()
	y := pass1(x)
	use(y)
}

func helperDrops(c bool) {
	x := src()
	y := drop(x)
	use(y)
}

func helperSorts(m map[int]int) {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	out = viaSort(out)
	useSlice(out)
}

func helperBuilds(m map[int]int) {
	var out []int
	for k := range m {
		out = push(out, k)
	}
	useSlice(out)
}

func mapRangeSeq(m map[int]int) {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	useSlice(out)
}

func mapRangeCommutes(m map[int]int) {
	sum := 0
	for _, v := range m {
		sum += v
	}
	use(sum)
}
`

// loadTaintCases parses and type-checks the test package in memory,
// importing through the package's shared loader.
func loadTaintCases(t *testing.T) *Pass {
	t.Helper()
	loader := testLoader(t)
	fset := loader.Fset
	f, err := parser.ParseFile(fset, "taintcase.go", taintTestSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: loader}
	pkg, err := conf.Check("lbvet.test/taintcase", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var findings []Finding
	return &Pass{
		Analyzer: Detflow,
		Fset:     fset,
		Path:     "lbvet.test/taintcase",
		Files:    []*ast.File{f},
		Pkg:      pkg,
		Info:     info,
		facts:    newFacts(),
		findings: &findings,
	}
}

// TestTaintEngine drives the CFG fixpoint with toy hooks: src() is the
// only source, and a case passes when the use()/useSlice() argument's
// taint matches the table.
func TestTaintEngine(t *testing.T) {
	cases := []struct {
		fn          string
		wantTainted bool
	}{
		{"direct", true},
		{"branchJoin", true},        // may-analysis keeps the tainted branch
		{"branchKillBoth", false},   // both branches strong-update
		{"loopCarried", true},       // taint rides the back edge
		{"shortCircuit", true},      // source inside a short-circuit operand
		{"sanitized", false},        // canon() kills its argument
		{"strongUpdate", false},     // clean reassignment kills
		{"helperFlows", true},       // summary: pass1 param reaches result
		{"helperDrops", false},      // summary: drop's param does not
		{"helperSorts", false},      // summary: viaSort cleanses on the way
		{"helperBuilds", true},      // summary: push launders an append
		{"mapRangeSeq", true},       // order taint escalates through append
		{"mapRangeCommutes", false}, // int accumulation commutes
	}
	pass := loadTaintCases(t)
	byName := make(map[string]*ast.FuncDecl)
	for _, d := range pass.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			byName[fd.Name.Name] = fd
		}
	}

	srcHook := func(call *ast.CallExpr) taintFact {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "src" {
			return taintFact{kind: kindOrder, why: "test source"}
		}
		return taintFact{}
	}

	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			fd := byName[tc.fn]
			if fd == nil {
				t.Fatalf("no function %s in test source", tc.fn)
			}
			gotTainted := false
			pass.taintFunc(fd, taintHooks{
				sourceCall: srcHook,
				sink: func(n ast.Node, state taintState) {
					ast.Inspect(n, func(m ast.Node) bool {
						call, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						id, ok := ast.Unparen(call.Fun).(*ast.Ident)
						if !ok || !strings.HasPrefix(id.Name, "use") {
							return true
						}
						for _, arg := range call.Args {
							if _, tainted := pass.exprTaint(arg, state); tainted {
								gotTainted = true
							}
						}
						return true
					})
				},
			})
			if gotTainted != tc.wantTainted {
				t.Errorf("%s: use() argument tainted = %v, want %v", tc.fn, gotTainted, tc.wantTainted)
			}
		})
	}
}

// TestFlowSummaries checks the interprocedural half directly: which
// parameters each helper's summary says reach its results.
func TestFlowSummaries(t *testing.T) {
	pass := loadTaintCases(t)
	cases := []struct {
		fn   string
		want []bool
	}{
		{"pass1", []bool{true}},
		{"drop", []bool{false}},
		{"viaSort", []bool{false}},   // sorted on the way out
		{"push", []bool{true, true}}, // both args reach the appended result
		{"src", []bool{}},            // no params
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			obj := pass.Pkg.Scope().Lookup(tc.fn)
			fn, ok := obj.(*types.Func)
			if !ok {
				t.Fatalf("no function %s", tc.fn)
			}
			sum := pass.flowSummary(fn)
			if sum == nil {
				t.Fatalf("no summary for %s", tc.fn)
			}
			if len(sum.flows) != len(tc.want) {
				t.Fatalf("summary len = %d, want %d", len(sum.flows), len(tc.want))
			}
			for i := range tc.want {
				if sum.flows[i] != tc.want[i] {
					t.Errorf("param %d flows = %v, want %v", i, sum.flows[i], tc.want[i])
				}
			}
		})
	}
}
