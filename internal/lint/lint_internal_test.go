package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePkg type-checks a single in-memory file into a Package (no imports).
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := TypeCheck(fset, "p", []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// lineReporter flags every line containing a marker comment, standing in
// for a real analyzer so the allow machinery can be tested in isolation.
var lineReporter = &Analyzer{
	Name: "marker",
	Doc:  "test analyzer: reports on every expression statement",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if es, ok := n.(*ast.ExprStmt); ok {
					pass.Reportf(es.Pos(), "marked")
				}
				return true
			})
		}
		return nil
	},
}

func TestAllowSuppression(t *testing.T) {
	pkg := parsePkg(t, `package p

func f() {
	print(1) //lint:allow marker trailing directives suppress their own line
	print(2)
	//lint:allow marker directives on their own line suppress the next one
	print(3)
	print(4) //lint:allow floatcmp a different analyzer's allow does not apply
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{lineReporter})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, d := range diags {
		lines = append(lines, d.Pos.Line)
	}
	// print(2) on line 5 and print(4) on line 8 must survive.
	if len(lines) != 2 || lines[0] != 5 || lines[1] != 8 {
		t.Fatalf("surviving diagnostic lines = %v, want [5 8]", lines)
	}
}

func TestAllowFileSuppression(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:allow-file marker the whole file deliberately relaxes this invariant

func f() {
	print(1)
	print(2)
}

func g() {
	print(3) //lint:allow floatcmp a different analyzer still reports here
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{lineReporter})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("file-scoped allow left diagnostics: %v", diags)
	}
}

func TestAllowFileRequiresJustification(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:allow-file marker

func f() {
	print(1)
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{lineReporter})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "allow: lint:allow marker needs a justification") {
		t.Errorf("missing justification diagnostic, got:\n%s", joined)
	}
	if !strings.Contains(joined, "marker: marked") {
		t.Errorf("bare allow-file suppressed the diagnostics anyway, got:\n%s", joined)
	}
}

func TestAllowRequiresJustification(t *testing.T) {
	pkg := parsePkg(t, `package p

func f() {
	//lint:allow marker
	print(1)
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{lineReporter})
	if err != nil {
		t.Fatal(err)
	}
	// The bare directive must not suppress, and must itself be reported.
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "allow: lint:allow marker needs a justification") {
		t.Errorf("missing justification diagnostic, got:\n%s", joined)
	}
	if !strings.Contains(joined, "marker: marked") {
		t.Errorf("bare allow suppressed the diagnostic anyway, got:\n%s", joined)
	}
}

// TestAllowUnknownAnalyzer pins that a directive naming no registered
// analyzer is itself reported, in both forms, while one naming a
// registered analyzer that is not running stays quiet.
func TestAllowUnknownAnalyzer(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:allow-file hotpathdecode this analyzer no longer exists

func f() {
	print(1) //lint:allow batchalloc nor does this one
	print(2) //lint:allow floatcmp registered, just not running
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{lineReporter})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s: %s", d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		`3 allow: lint:allow names unknown analyzer "hotpathdecode"`,
		`6 marker: marked`,
		`6 allow: lint:allow names unknown analyzer "batchalloc"`,
		`7 marker: marked`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verb
	}{
		{"plain", nil},
		{"%d", []verb{{'d', 0}}},
		{"%v %w", []verb{{'v', 0}, {'w', 1}}},
		{"100%% %s", []verb{{'s', 0}}},
		{"%[2]v %[1]s", []verb{{'v', 1}, {'s', 0}}},
		{"%*d %v", []verb{{'d', 1}, {'v', 2}}},
		{"%.2f %+q", []verb{{'f', 0}, {'q', 1}}},
		{"%.*f", []verb{{'f', 1}}},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		if len(got) != len(c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}

func TestPathMatching(t *testing.T) {
	if !pathIs("jackpine/internal/geom", "internal/geom") {
		t.Error("suffix at segment boundary should match")
	}
	if pathIs("jackpine/internal/biogeom", "internal/geom") {
		t.Error("mid-segment suffix must not match")
	}
	if !pathIs("internal/geom", "internal/geom") {
		t.Error("exact path should match")
	}
	if !pathUnder("jackpine/internal/index/rtree", "internal/index") {
		t.Error("subpackage should be under the tree")
	}
	if !pathUnder("jackpine/internal/index", "internal/index") {
		t.Error("the tree root itself should match")
	}
	if pathUnder("jackpine/internal/indexer", "internal/index") {
		t.Error("sibling with shared prefix must not match")
	}
}
