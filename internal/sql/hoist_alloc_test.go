package sql

import (
	"testing"

	"jackpine/internal/storage"
)

// TestHoistPassAllocatesNothingWithoutSlots: the stage-slot pass over a
// statement with nothing to hoist — the address lookup browse issues at
// 0.07 ms — must not allocate, so single-table traffic does not pay for
// the rewrite join queries benefit from.
func TestHoistPassAllocatesNothingWithoutSlots(t *testing.T) {
	stmt, err := Parse("SELECT fromaddr, toaddr, geo FROM edges " +
		"WHERE name = 'Main St' AND fromaddr <= 120 AND toaddr >= 120 ORDER BY fromaddr + 1")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	cols := []Column{{"id", storage.TypeInt}, {"name", storage.TypeText}, {"fromaddr", storage.TypeInt},
		{"toaddr", storage.TypeInt}, {"geo", storage.TypeGeom}}
	scope := NewScope()
	scope.AddTable("edges", cols)
	reg := NewRegistry(RegistryOptions{})
	bind := func(e Expr) Expr {
		b, err := Bind(e, scope, reg, false)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	exprs := []Expr{bind(sel.Exprs[0].Expr), bind(sel.Exprs[1].Expr), bind(sel.Exprs[2].Expr)}
	order := []Expr{bind(sel.OrderBy[0].Expr)}
	conjuncts := splitConjuncts(bind(sel.Where))
	tables := []boundTable{{binding: "edges", lo: 0, hi: len(cols)}}
	allocs := testing.AllocsPerRun(100, func() {
		h := hoister{reg: reg, tables: tables, width: scope.Len()}
		h.hoistSinks(exprs, order)
		for i, c := range conjuncts {
			conjuncts[i] = h.hoist(c, 0, "filter")
		}
		if len(h.slots) != 0 || h.cells != nil {
			t.Fatal("a statement without function calls produced slots")
		}
	})
	if allocs != 0 {
		t.Errorf("stage-slot pass allocates %.0f times on a statement with nothing to hoist, want 0", allocs)
	}
}
