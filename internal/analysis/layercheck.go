package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// layerRule is one package's layering contract: the import-path
// suffixes it must never import, and whether it may spawn goroutines.
type layerRule struct {
	// Pkg is the package under the rule, matched by import-path suffix.
	Pkg string
	// Forbidden are the import-path suffixes Pkg must not import.
	Forbidden []string
	// NoGo additionally forbids `go` statements inside Pkg.
	NoGo bool
	// Why is the rationale fragment appended to import diagnostics.
	Why string
}

// layerRules is the layering contract table. Two boundaries are
// machine-checked:
//
//   - internal/lbnode, the runtime-agnostic protocol core, holds pure
//     per-node transitions — (state, incoming message) → (state′,
//     outgoing actions) — so delivery, retransmission, virtual time,
//     fault plans and goroutines all belong to the executors
//     (internal/protocol over sim.Engine, internal/cluster over TCP).
//     Importing sim, faults, par or wire — or spawning a goroutine —
//     would silently re-entangle the layers.
//   - internal/wire, the TCP transport, sits below every executor: it
//     moves opaque frames and knows nothing of virtual time or round
//     semantics. Importing sim or protocol would invert the stack and
//     drag the simulator into every deployed binary.
//
// chord and core are the shared data model and stay importable from
// both sides.
var layerRules = []layerRule{
	{
		Pkg:       "internal/lbnode",
		Forbidden: []string{"internal/sim", "internal/faults", "internal/par", "internal/wire"},
		NoGo:      true,
		Why:       "delivery, faults and concurrency belong to the executors (internal/protocol, internal/cluster)",
	},
	{
		Pkg:       "internal/wire",
		Forbidden: []string{"internal/sim", "internal/protocol"},
		Why:       "the transport moves opaque frames below every executor; simulator and round semantics must not link into it",
	},
}

// LayerPkgs are the packages under a layering rule, derived from the
// rule table.
var LayerPkgs = func() []string {
	pkgs := make([]string, len(layerRules))
	for i, r := range layerRules {
		pkgs[i] = r.Pkg
	}
	return pkgs
}()

// Layercheck enforces the layering contract table above. Executors may
// import the layered packages; the layered packages may not reach up.
var Layercheck = &Analyzer{
	Name:  "layercheck",
	Doc:   "enforce the layering rule table: lbnode imports no executor machinery (sim/faults/par/wire) and spawns no goroutines; wire imports no sim/protocol",
	Scope: LayerPkgs,
	Run:   runLayercheck,
}

// rulesForFile selects the rules covering one file. Real packages match
// by import path; testdata fixture files (one package standing in for
// several) match by file basename — lbnode.go carries the lbnode rule,
// wire.go the wire rule — so one golden package exercises every table
// row.
func rulesForFile(pass *Pass, file *ast.File) []*layerRule {
	var out []*layerRule
	inTestdata := strings.Contains(pass.Path, "/testdata/")
	var base string
	if inTestdata {
		base = pass.Fset.Position(file.Pos()).Filename
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
	}
	for i := range layerRules {
		r := &layerRules[i]
		if inTestdata {
			seg := r.Pkg
			if j := strings.LastIndexByte(seg, '/'); j >= 0 {
				seg = seg[j+1:]
			}
			if base == seg+".go" {
				out = append(out, r)
			}
		} else if hasPathSuffix(pass.Path, r.Pkg) {
			out = append(out, r)
		}
	}
	return out
}

func runLayercheck(pass *Pass) {
	for _, file := range pass.Files {
		rules := rulesForFile(pass, file)
		if len(rules) == 0 {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, r := range rules {
				for _, forbidden := range r.Forbidden {
					if hasPathSuffix(path, forbidden) {
						pass.Reportf(imp.Pos(), "import of %s in %s: %s", path, r.Pkg, r.Why)
					}
				}
			}
		}
		noGo := false
		for _, r := range rules {
			noGo = noGo || r.NoGo
		}
		if !noGo {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in the runtime-agnostic protocol core: state machines are pure transitions; executors own all concurrency")
			}
			return true
		})
	}
}
