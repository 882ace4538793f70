package engine

import (
	"strings"
	"testing"
)

func TestExplainShowsAccessPaths(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	e.MustExec("CREATE INDEX cidx ON cities (name)")

	// One row per table, then one per hoisted slot: the constant window
	// is evaluated once per statement.
	res := e.MustExec("EXPLAIN SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,5,5))")
	if len(res.Rows) != 2 {
		t.Fatalf("explain rows = %d", len(res.Rows))
	}
	if res.Rows[1][0].Text != "hoisted" ||
		res.Rows[1][1].Text != "stage=const ST_MAKEENVELOPE(0, 0, 5, 5) consumers=filter,window" ||
		res.Rows[1][2].Int != 1 {
		t.Errorf("hoisted line = %v", res.Rows[1])
	}
	if res.Rows[0][0].Text != "landmarks" || res.Rows[0][1].Text != "spatial-index" {
		t.Errorf("explain = %v", res.Rows[0])
	}
	if res.Rows[0][2].Int != 36 {
		t.Errorf("row count = %v", res.Rows[0][2])
	}

	res = e.MustExec("EXPLAIN SELECT id FROM landmarks WHERE name = 'x'")
	if res.Rows[0][1].Text != "seqscan" {
		t.Errorf("unindexed explain = %v", res.Rows[0])
	}
	res = e.MustExec("EXPLAIN SELECT id FROM cities WHERE name = 'x'")
	if res.Rows[0][1].Text != "btree-seek" {
		t.Errorf("btree explain = %v", res.Rows[0])
	}

	// Joins report one row per table.
	res = e.MustExec("EXPLAIN SELECT c.id FROM cities c JOIN landmarks l ON ST_Contains(l.geo, c.loc)")
	if len(res.Rows) != 2 || res.Rows[1][1].Text != "inl(index=geo)" {
		t.Errorf("join explain = %v", res.Rows)
	}

	// An outer-fixed expression is evaluated at the outer table, shared
	// by the probe window, the join filter and the select list.
	res = e.MustExec("EXPLAIN SELECT l.id, ST_Area(ST_Buffer(c.loc, 2)) FROM cities c " +
		"JOIN landmarks l ON ST_Intersects(l.geo, ST_Buffer(c.loc, 2))")
	if len(res.Rows) != 4 || res.Rows[2][0].Text != "hoisted" ||
		res.Rows[2][1].Text != "stage=c ST_BUFFER(c.loc, 2) consumers=project,filter,window" ||
		res.Rows[3][1].Text != "stage=c ST_AREA(ST_BUFFER(c.loc, 2)) consumers=project" {
		t.Errorf("outer-slot explain = %v", res.Rows)
	}

	// EXPLAIN must not execute: no error even for expensive queries, and
	// DML is rejected.
	if _, err := e.Exec("EXPLAIN DELETE FROM cities"); err == nil ||
		!strings.Contains(err.Error(), "SELECT") {
		t.Errorf("EXPLAIN DELETE accepted: %v", err)
	}
}

func TestSQLGeoJSON(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO landmarks VALUES (1, 'sq', ST_GeomFromText('POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))'))")
	res := e.MustExec("SELECT ST_AsGeoJSON(geo) FROM landmarks")
	if !strings.Contains(res.Rows[0][0].Text, `"type":"Polygon"`) {
		t.Errorf("geojson = %v", res.Rows[0][0])
	}
	res = e.MustExec(`SELECT ST_AsText(ST_GeomFromGeoJSON('{"type":"Point","coordinates":[3,4]}')) FROM landmarks`)
	if res.Rows[0][0].Text != "POINT (3 4)" {
		t.Errorf("from geojson = %v", res.Rows[0][0])
	}
	if _, err := e.Exec("SELECT ST_GeomFromGeoJSON('junk') FROM landmarks"); err == nil {
		t.Error("bad geojson accepted")
	}
}

// TestExplainShowsPrefilter: every stage-0 source lists one prefilter
// row per stage-0 comparison of a column with a literal, which it tests
// on every stored tuple it scans or fetches before copying it into a
// batch. A literal on the left is listed as written. Comparisons of two
// columns and join-stage comparisons list none.
func TestExplainShowsPrefilter(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	prefilters := func(e *Engine, q string) []string {
		t.Helper()
		var got []string
		for _, row := range e.MustExec("EXPLAIN " + q).Rows {
			if row[0].Text == "prefilter" {
				if row[2].Int != 36 {
					t.Errorf("%s: prefilter rows column = %d, want the table's 36", q, row[2].Int)
				}
				got = append(got, row[1].Text)
			}
		}
		return got
	}
	q := "SELECT COUNT(*) FROM landmarks WHERE id >= 3 AND 30 > id AND name <> 'cell-7' AND id < id + 1"
	want := []string{"stage=landmarks (id >= 3)", "stage=landmarks (30 > id)", "stage=landmarks (name <> 'cell-7')"}
	if got := prefilters(e, q); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("prefilter rows = %q, want %q", got, want)
	}
	if res := e.MustExec(q); res.Rows[0][0].Int != 26 {
		t.Errorf("count = %v, want 26", res.Rows[0][0])
	}
	join := "SELECT l.id FROM landmarks a JOIN landmarks l ON ST_Touches(l.geo, a.geo) WHERE a.id = 7 AND l.id > 3"
	if got := prefilters(e, join); len(got) != 1 || got[0] != "stage=a (a.id = 7)" {
		t.Errorf("join prefilter rows = %q, want only stage 0's a.id = 7", got)
	}
	window := "SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 5, 5)) AND id = 7"
	if got := prefilters(e, window); len(got) != 1 || got[0] != "stage=landmarks (id = 7)" {
		t.Errorf("window scan prefilter rows = %q, want only id = 7", got)
	}
}
