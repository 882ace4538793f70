// Package lint is jackpinevet's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface on top of
// the standard library's go/ast, go/types and go/importer. It exists because
// the project's hard-won invariants — explicit float comparison semantics,
// lock discipline and lock order, context propagation, error wrapping, fsync
// error handling — are exactly the properties that regress silently under
// refactors, and `go vet` has no opinion about any of them.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. Diagnostics can be suppressed, with a mandatory justification,
// by a //lint:allow directive (see allow.go). The cmd/jackpinevet multichecker
// runs every registered analyzer over the module and exits non-zero on any
// unsuppressed diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Exactly one of Run and
// RunModule must be set: Run for per-package analyses, RunModule for
// whole-module analyses whose facts only make sense across package
// boundaries (e.g. a lock-acquisition graph).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant: what is
	// flagged and why the project cares.
	Doc string

	// Run inspects a single package and reports findings via pass.Reportf.
	Run func(pass *Pass) error

	// RunModule inspects every loaded package at once. It runs exactly
	// once per lint.Run invocation, after the per-package analyzers.
	RunModule func(pass *ModulePass) error
}

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries a module analyzer's view of every loaded package.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos, resolved through pkg's FileSet
// (packages loaded under different build-tag variants may carry
// distinct FileSets).
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one analyzer finding, located in the source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run executes the analyzers over the packages, applies //lint:allow
// suppression, and returns the surviving diagnostics ordered by position.
// Per-package analyzers see one package at a time; module analyzers run
// once over the whole set, after them. Identical diagnostics are
// deduplicated, so a package loaded under several build-tag variants
// reports each finding in its shared files once.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// The allow set spans all packages: module analyzers report across
	// package boundaries, and a directive's file name locates it fully.
	// Directives are checked against every registered analyzer, not just
	// the ones running, so a -run subset reports no false stale allows.
	allows := newAllowSet()
	known := make(map[string]bool)
	for _, a := range append(All(), analyzers...) {
		known[a.Name] = true
	}
	var all []Diagnostic
	seenAllowDiag := make(map[Diagnostic]bool)
	for _, pkg := range pkgs {
		for _, d := range collectAllows(pkg, allows, known) {
			if !seenAllowDiag[d] {
				seenAllowDiag[d] = true
				all = append(all, d)
			}
		}
	}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{Analyzer: a, Pkgs: pkgs, diags: &raw}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	seen := make(map[Diagnostic]bool, len(raw))
	for _, d := range allows.filter(raw) {
		if seen[d] {
			continue
		}
		seen[d] = true
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers rely on.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// TypeCheck parses nothing itself; it type-checks already-parsed files into
// a Package using the supplied importer. Shared by the module loader and the
// fixture loader.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
