package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// //lint:allow <analyzer> <justification>
// //lint:allow-file <analyzer> <justification>
//
// An allow directive suppresses the named analyzer's diagnostics on exactly
// one line: its own line when it rides as a trailing comment after code, or
// the line immediately below when it sits alone on its line above the
// statement. The file-scoped form suppresses the analyzer everywhere in the
// file that declares it; it exists for files where one invariant is
// deliberately and pervasively relaxed (e.g. a catalog mutated only under a
// lock the analyzer cannot see), where repeating the same line allow at
// every site buries the one justification in noise. In both forms the
// justification is mandatory: a bare allow is itself reported, because an
// unexplained suppression is indistinguishable from a silenced bug. So is
// an allow naming no registered analyzer: it suppresses nothing, yet still
// reads as a live justification after its analyzer is deleted or renamed.

const (
	allowPrefix     = "//lint:allow"
	allowFilePrefix = "//lint:allow-file"
)

type allowKey struct {
	file     string
	line     int
	analyzer string
}

type fileAllowKey struct {
	file     string
	analyzer string
}

type allowSet struct {
	lines map[allowKey]bool
	files map[fileAllowKey]bool
}

func newAllowSet() allowSet {
	return allowSet{
		lines: make(map[allowKey]bool),
		files: make(map[fileAllowKey]bool),
	}
}

// collectAllows scans a package's comments for allow directives into set.
// It returns diagnostics for malformed directives and for directives
// naming an analyzer outside known.
func collectAllows(pkg *Package, set allowSet, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		code := codeLines(pkg, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				// The file-scoped prefix extends the line-scoped one, so
				// test it first.
				fileScoped := strings.HasPrefix(c.Text, allowFilePrefix)
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if fileScoped {
					rest = strings.TrimPrefix(c.Text, allowFilePrefix)
				}
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) == 0 {
					diags = append(diags, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  "lint:allow directive names no analyzer",
					})
					continue
				}
				if !known[fields[0]] {
					diags = append(diags, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("lint:allow names unknown analyzer %q", fields[0]),
					})
					continue
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  "lint:allow " + fields[0] + " needs a justification",
					})
					continue
				}
				if fileScoped {
					set.files[fileAllowKey{pos.Filename, fields[0]}] = true
					continue
				}
				line := pos.Line
				if !code[line] {
					// Standalone comment line: covers the next line.
					line++
				}
				set.lines[allowKey{pos.Filename, line, fields[0]}] = true
			}
		}
	}
	return diags
}

// codeLines reports which lines of f contain non-comment syntax, so a
// directive can tell whether it trails code or stands alone. Every line with
// code has some node beginning or ending on it, so marking only node
// boundary lines is enough.
func codeLines(pkg *Package, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		lines[pkg.Fset.Position(n.Pos()).Line] = true
		lines[pkg.Fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// filter drops diagnostics covered by an allow directive.
func (s allowSet) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if s.lines[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		if s.files[fileAllowKey{d.Pos.Filename, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
