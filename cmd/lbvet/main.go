// Command lbvet runs the project's static-analysis suite: the
// machine-checked invariants of internal/analysis — the syntactic
// analyzers (randcontract, identcompare, layercheck) and the dataflow
// ones (detflow, lockguard, hotalloc, floatorder) — over every package
// in the module, including test files. It prints findings as
// file:line:col (or a JSON array with -json) and exits nonzero when any
// survive the //lbvet:ignore annotations, so ci.sh can gate on it
// between vet and build.
//
// Usage:
//
//	lbvet [-C dir] [-run analyzer,analyzer] [-json] [-list]
//
// Packages load in parallel through a shared type-check cache;
// analyzers then run per package, also in parallel, with findings
// reported in deterministic sorted order regardless of scheduling.
//
// Suppress a deliberate violation with a trailing (or
// immediately-preceding) comment carrying a mandatory justification:
//
//	//lbvet:ignore <analyzer> <reason>
//
// An ignore without a reason, one naming an analyzer that is not
// registered (a stale annotation), or one that suppresses nothing while
// its analyzer runs, is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"p2plb/internal/analysis"
)

// jsonFinding is the -json wire shape of one finding, stable for CI
// tooling: {"analyzer","file","line","col","message"}.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	dir := flag.String("C", ".", "directory inside the module to vet")
	run := flag.String("run", "all", "comma-separated analyzers to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := analysis.ByName(*run)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}

	// Analyze packages in parallel; package facts are per-package, so
	// the only shared state is the per-slot result. The flatten below
	// keeps output in the loader's deterministic package order.
	perPkg := make([][]analysis.Finding, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i] = analysis.RunAnalyzers(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	var findings []analysis.Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lbvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbvet:", err)
	os.Exit(2)
}
