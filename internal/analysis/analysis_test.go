package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

// testLoader returns the one Loader every test in this package shares,
// so the standard library and the module's packages are type-checked
// once per test binary rather than once per fixture.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLoader
}

// loadFixture loads one testdata package through the real loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := testLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("LoadDir(%s): got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wants extracts the golden expectations: file:line → message
// substrings that must each match exactly one finding on that line.
func collectWants(pkg *Package) map[string][]string {
	out := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], m[1])
				}
			}
		}
	}
	return out
}

// runGolden checks an analyzer against its fixture: every `// want`
// line must produce a matching finding, and no other line may produce
// any (that is the clean-case half of the golden file). The fixture
// must hold at least one want (a flagged case) and at least one good*
// function (a clean case), or the golden check proves nothing.
func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, a.Name)
	findings := RunAnalyzers(pkg, []*Analyzer{a})
	wants := collectWants(pkg)
	if len(wants) == 0 {
		t.Errorf("%s fixture has no flagged cases", a.Name)
	}
	if !hasCleanCase(pkg) {
		t.Errorf("%s fixture has no good* clean cases", a.Name)
	}
	matched := make(map[string]int)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		subs := wants[key]
		ok := false
		for i, sub := range subs {
			if strings.Contains(f.Message, sub) {
				matched[fmt.Sprintf("%s#%d", key, i)]++
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, subs := range wants {
		for i, sub := range subs {
			if matched[fmt.Sprintf("%s#%d", key, i)] == 0 {
				t.Errorf("%s: expected a finding matching %q, got none", key, sub)
			}
		}
	}
}

// hasCleanCase reports whether a fixture declares a good* function.
func hasCleanCase(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "good") {
				return true
			}
		}
	}
	return false
}

func TestRandContractGolden(t *testing.T) { runGolden(t, RandContract) }
func TestDetflowGolden(t *testing.T)      { runGolden(t, Detflow) }
func TestIdentCompareGolden(t *testing.T) { runGolden(t, IdentCompare) }
func TestLayercheckGolden(t *testing.T)   { runGolden(t, Layercheck) }
func TestLockguardGolden(t *testing.T)    { runGolden(t, Lockguard) }
func TestHotallocGolden(t *testing.T)     { runGolden(t, Hotalloc) }
func TestFloatorderGolden(t *testing.T)   { runGolden(t, Floatorder) }

// TestDetflowCatchesLaunderedFlow is the reason detflow is a dataflow
// analysis: the laundered.go case routes a map-range key through a
// local and an in-package helper before the return, which no match on
// a builtin append under the range can see.
func TestDetflowCatchesLaunderedFlow(t *testing.T) {
	pkg := loadFixture(t, "detflow")
	caught := 0
	for _, f := range RunAnalyzers(pkg, []*Analyzer{Detflow}) {
		if strings.HasSuffix(f.Pos.Filename, "laundered.go") && strings.Contains(f.Message, "map-iteration order") {
			caught++
		}
	}
	if caught != 1 {
		t.Errorf("detflow findings in laundered.go = %d, want exactly 1 (badLaundered flagged, goodLaunderedCanon clean)", caught)
	}
}

// TestIgnoreDirectives covers the annotation machinery beyond the
// suppression already exercised by the identcompare fixture: a
// reasonless ignore suppresses nothing and is itself reported, an
// ignore naming an unregistered analyzer (a stale annotation) is
// reported, and so is a reasoned ignore that suppresses nothing — but
// only when its analyzer ran.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignores")
	findings := RunAnalyzers(pkg, []*Analyzer{IdentCompare})
	var identHits, reasonless, stale, unused int
	for _, f := range findings {
		switch f.Analyzer {
		case "identcompare":
			identHits++
		case "lbvet":
			switch {
			case strings.Contains(f.Message, "justification"):
				reasonless++
			case strings.Contains(f.Message, "unknown analyzer"):
				stale++
				if !strings.Contains(f.Message, `"idcompare"`) {
					t.Errorf("stale-name finding should quote the bad name: %s", f)
				}
			case strings.Contains(f.Message, "suppresses nothing"):
				unused++
				if !strings.Contains(f.Message, "identcompare") {
					t.Errorf("unused-ignore finding should name identcompare: %s", f)
				}
			default:
				t.Errorf("unexpected lbvet finding: %s", f)
			}
		default:
			t.Errorf("unexpected analyzer %q: %s", f.Analyzer, f)
		}
	}
	// One raw comparison under a reasonless ignore (still reported),
	// one under a reasoned ignore (suppressed), plus the reasonless,
	// stale-name and unused identcompare directives themselves; the
	// detflow directive is left alone because detflow did not run.
	if identHits != 1 {
		t.Errorf("identcompare findings = %d, want 1 (reasonless ignore must not suppress)", identHits)
	}
	if reasonless != 1 {
		t.Errorf("reasonless-directive findings = %d, want 1", reasonless)
	}
	if stale != 1 {
		t.Errorf("stale-name findings = %d, want 1", stale)
	}
	if unused != 1 {
		t.Errorf("unused-directive findings = %d, want 1", unused)
	}
}

// TestLoadModule smoke-tests the module walker: it must find the
// well-known packages and type-check them without error.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := testLoader(t).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{
		"p2plb",                   // test-only root package
		"p2plb/internal/sim",      // deterministic core
		"p2plb/internal/analysis", // this package
		"p2plb/cmd/lbvet",         // the driver
	} {
		if !seen[want] {
			t.Errorf("LoadModule missed %s (got %d packages)", want, len(pkgs))
		}
	}
}

// TestByName covers the analyzer-selection flag parsing.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v", len(all), err)
	}
	one, err := ByName("identcompare")
	if err != nil || len(one) != 1 || one[0] != IdentCompare {
		t.Fatalf("ByName(identcompare) = %v, err %v", one, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}
