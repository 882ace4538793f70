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
