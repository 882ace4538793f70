// Package linttest runs lint analyzers over GOPATH-style fixture trees, in
// the manner of golang.org/x/tools/go/analysis/analysistest: fixture files
// under <testdata>/src/<importpath>/ carry `// want "regexp"` comments on
// the lines where diagnostics are expected, and the runner fails the test
// on any mismatch in either direction.
//
// Fixtures are hermetic: imports resolve against sibling fixture packages
// first (testdata/src/jackpine/internal/geom, testdata/src/sync, ...), so
// each analyzer test ships minimal stubs of the packages whose symbols it
// matches instead of type-checking the real standard library.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jackpine/internal/lint"
)

// Run loads each fixture package from testdata/src, applies the analyzer,
// and matches diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	l, pkgs := load(t, testdata, pkgPaths...)
	for _, pkg := range pkgs {
		checkWants(t, l.fset, pkg, run(t, a, pkg))
	}
}

// RunModule loads all the fixture packages into one shared type
// universe, runs the analyzer once over the whole set (as module
// analyzers require), and matches diagnostics against want comments
// across every package.
func RunModule(t *testing.T, testdata string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	l, pkgs := load(t, testdata, pkgPaths...)
	diags := run(t, a, pkgs...)
	for _, pkg := range pkgs {
		var mine []lint.Diagnostic
		dirs := map[string]bool{}
		for _, f := range pkg.Files {
			dirs[filepath.Dir(l.fset.Position(f.Pos()).Filename)] = true
		}
		for _, d := range diags {
			if dirs[filepath.Dir(d.Pos.Filename)] {
				mine = append(mine, d)
			}
		}
		checkWants(t, l.fset, pkg, mine)
	}
}

// Packages loads fixture packages into one shared type universe without
// running any analyzer, for tests that drive lint APIs (LockGraph)
// directly.
func Packages(t *testing.T, testdata string, pkgPaths ...string) []*lint.Package {
	t.Helper()
	_, pkgs := load(t, testdata, pkgPaths...)
	return pkgs
}

// Diagnostics loads one fixture package and returns the analyzer's raw
// (allow-filtered) diagnostics without matching want comments. Useful for
// asserting an analyzer stays silent outside its scope.
func Diagnostics(t *testing.T, testdata string, a *lint.Analyzer, pkgPath string) []lint.Diagnostic {
	t.Helper()
	_, pkgs := load(t, testdata, pkgPath)
	return run(t, a, pkgs...)
}

// load parses and type-checks the fixture packages into one shared type
// universe.
func load(t *testing.T, testdata string, pkgPaths ...string) (*loader, []*lint.Package) {
	t.Helper()
	l := newLoader(testdata)
	var pkgs []*lint.Package
	for _, path := range pkgPaths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs
}

// run applies one analyzer to the packages.
func run(t *testing.T, a *lint.Analyzer, pkgs ...*lint.Package) []lint.Diagnostic {
	t.Helper()
	diags, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}

func newLoader(testdata string) *loader {
	return &loader{
		src:  filepath.Join(testdata, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*lint.Package),
	}
}

// loader resolves fixture import paths to directories under src.
type loader struct {
	src  string
	fset *token.FileSet
	pkgs map[string]*lint.Package
}

// Import implements types.Importer against the fixture tree.
func (l *loader) Import(path string) (*types.Package, error) {
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (l *loader) load(path string) (*lint.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture import %q has no stub under testdata/src: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q is empty", path)
	}
	pkg, err := lint.TypeCheck(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// checkWants cross-matches diagnostics against want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitWantPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// splitWantPatterns parses the quoted regexps after a want marker, e.g.
// `// want "first" "second"` or backquoted equivalents.
func splitWantPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return append(pats, s) // unterminated: surface as a bad pattern
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				pats = append(pats, unq)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return append(pats, s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return append(pats, s)
		}
	}
	return pats
}
