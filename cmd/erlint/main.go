// Command erlint runs the repo's invariant analyzers (see
// internal/analysis and DESIGN.md "Static analysis"). It speaks the
// `go vet -vettool` protocol, so the normal entry point is
//
//	go build -o bin/erlint ./cmd/erlint
//	go vet -vettool=bin/erlint ./...
//
// which is what `make vet` does. Standalone,
//
//	erlint -list
//
// loads the whole module from source and prints each analyzer's
// invariant with its current finding and suppression counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/analysis/arenaretain"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/poolbox"
)

var analyzers = []*analysis.Analyzer{
	arenaretain.Analyzer,
	ctxflow.Analyzer,
	poolbox.Analyzer,
}

func main() { os.Exit(run()) }

func run() int {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	jsonFlag := fs.Bool("json", false, "emit JSON output")
	fs.Int("c", -1, "display offending line with this many lines of context (accepted for vet compatibility; unused)")
	vFlag := fs.String("V", "", "print version and exit (-V=full)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON")
	listFlag := fs.Bool("list", false, "list analyzers with current module finding counts")
	fs.Parse(os.Args[1:])

	switch {
	case *vFlag != "":
		if err := analysis.PrintVersion(os.Stdout, progname); err != nil {
			return fail(err)
		}
		return 0
	case *flagsFlag:
		if err := analysis.PrintFlags(os.Stdout, analysis.VetToolFlags()); err != nil {
			return fail(err)
		}
		return 0
	case *listFlag:
		return list()
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return vetUnit(args[0], *jsonFlag)
	}
	fmt.Fprintf(os.Stderr, "usage: %s [-list] | [-json] unit.cfg (via go vet -vettool)\n", progname)
	return 2
}

// vetUnit handles one go vet compilation unit.
func vetUnit(cfg string, asJSON bool) int {
	res, unit, err := analysis.RunUnit(cfg, analyzers)
	if err != nil {
		return fail(err)
	}
	if res == nil {
		return 0 // VetxOnly, or a typecheck failure the compiler will report
	}
	if asJSON {
		if err := analysis.PrintJSON(os.Stdout, unit.Fset, unit.ID, res.Diagnostics); err != nil {
			return fail(err)
		}
		return 0
	}
	if len(res.Diagnostics) > 0 {
		analysis.PrintPlain(os.Stderr, unit.Fset, res.Diagnostics)
		return 2
	}
	return 0
}

// list loads the module from source and prints per-analyzer counts.
func list() int {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return fail(err)
	}
	units, err := analysis.LoadModule(root)
	if err != nil {
		return fail(err)
	}
	findings := make(map[string]int)
	suppressed := make(map[string]int)
	for _, u := range units {
		res, err := analysis.RunAnalyzers(u, analyzers)
		if err != nil {
			return fail(err)
		}
		for _, d := range res.Diagnostics {
			findings[d.Analyzer]++
		}
		for name, n := range res.Suppressed {
			suppressed[name] += n
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "ANALYZER\tFINDINGS\tSUPPRESSED\tINVARIANT\n")
	for _, a := range analyzers {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", a.Name, findings[a.Name], suppressed[a.Name], a.DocSummary())
	}
	if n := findings["erlint"]; n > 0 {
		fmt.Fprintf(w, "erlint\t%d\t-\tmalformed or stale //erlint:ignore directives\n", n)
	}
	w.Flush()
	fmt.Printf("%d packages analyzed\n", len(units))
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "erlint: %v\n", err)
	return 1
}
