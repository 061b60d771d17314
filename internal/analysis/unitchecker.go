package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// This file implements the `go vet -vettool` driver protocol, the same
// contract golang.org/x/tools/go/analysis/unitchecker satisfies:
//
//	erlint -V=full     print a version line for go's build cache
//	erlint -flags      print the tool's flags as JSON
//	erlint foo.cfg     analyze the compilation unit described by the
//	                   JSON config file cmd/go wrote
//
// cmd/go does all package loading: the config carries the unit's Go
// files plus the import map and the compiler-written export-data files
// of every dependency, so type-checking one unit needs no source
// beyond the unit itself (importer.ForCompiler with a lookup into
// cfg.PackageFile). Diagnostics print to stderr (or as JSON to stdout
// with -json) and a non-zero exit tells go vet the gate failed.

// vetConfig mirrors the JSON written by cmd/go for each vet action
// (cmd/go/internal/work.vetConfig). Fields the driver does not need
// are still listed so the decode stays strict about nothing.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements -V=full: one "name version id" line whose id
// is a content hash of the running binary, so go's vet result cache
// invalidates whenever erlint is rebuilt with different analyzers.
func PrintVersion(w io.Writer, progname string) error {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:24]
			}
			f.Close()
		}
	}
	_, err := fmt.Fprintf(w, "%s version erlint-%s\n", progname, id)
	return err
}

// jsonFlagDesc is one entry of the -flags output, the shape cmd/go
// parses to learn which command-line flags the tool accepts.
type jsonFlagDesc struct {
	Name  string
	Bool  bool
	Usage string
}

// PrintFlags implements -flags for the given flag descriptions.
func PrintFlags(w io.Writer, flags []jsonFlagDesc) error {
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// VetToolFlags describes the flags cmd/go may pass through to the
// tool. -json and -c are the standard vet driver flags; the rest are
// erlint's standalone modes (never passed by go vet, but the protocol
// wants them declared).
func VetToolFlags() []jsonFlagDesc {
	return []jsonFlagDesc{
		{Name: "json", Bool: true, Usage: "emit JSON output"},
		{Name: "c", Bool: false, Usage: "display offending line with this many lines of context"},
		{Name: "V", Bool: false, Usage: "print version and exit (-V=full)"},
		{Name: "flags", Bool: true, Usage: "print analyzer flags in JSON"},
		{Name: "list", Bool: true, Usage: "list analyzers and current repo finding counts"},
	}
}

// RunUnit analyzes the compilation unit described by the go vet config
// file. It returns the unit result; exit-code policy belongs to main.
// In VetxOnly mode (go vet wants only dependency facts — erlint has
// none) it writes the empty facts file and returns a nil Result.
func RunUnit(configFile string, analyzers []*Analyzer) (*Result, *Unit, error) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		return nil, nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, nil, fmt.Errorf("cannot decode vet config %s: %v", configFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, nil, fmt.Errorf("package %s has no files", cfg.ImportPath)
	}

	// erlint exports no facts, but go vet reads the output file after
	// every run; write it before any early exit.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil, nil // the compiler will report it
			}
			return nil, nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path; cmd/go wrote the export data
		// of every dependency into PackageFile.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolve vendoring
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil, nil
		}
		return nil, nil, err
	}

	u := &Unit{ID: cfg.ID, Fset: fset, Files: files, Pkg: pkg, Info: info}
	res, err := RunAnalyzers(u, analyzers)
	if err != nil {
		return nil, nil, err
	}
	return res, u, nil
}

// newTypesInfo allocates the type-checker maps the analyzers read.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// PrintPlain writes diagnostics as "file:line:col: analyzer: message"
// lines, sorted by position.
func PrintPlain(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// PrintJSON writes the go-vet-compatible JSON tree for one unit:
// {"unitID": {"analyzer": [{"posn": ..., "message": ...}]}}.
func PrintJSON(w io.Writer, fset *token.FileSet, unitID string, diags []Diagnostic) error {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiag)
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
			Posn:    fset.Position(d.Pos).String(),
			Message: d.Message,
		})
	}
	tree := map[string]map[string][]jsonDiag{unitID: byAnalyzer}
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
