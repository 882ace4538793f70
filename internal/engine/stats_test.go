package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// decodedEnvelopes is the reference for ScanMBR: every live row in heap
// order, fully decoded (decodedRows), keeping the envelope of each
// non-NULL, non-empty geometry in column col.
func decodedEnvelopes(t *testing.T, tbl *table, col int) ([]sql.RowID, []geom.Rect) {
	t.Helper()
	var ids []sql.RowID
	var envs []geom.Rect
	rowIDs, rows := decodedRows(t, tbl)
	for i, row := range rows {
		v := row[col]
		if v.IsNull() || v.Type != storage.TypeGeom || v.Geom == nil || v.Geom.IsEmpty() {
			continue
		}
		ids = append(ids, rowIDs[i])
		envs = append(envs, v.Geom.Envelope())
	}
	return ids, envs
}

// TestScanMBRMatchesDecodedEnvelopes pins the decode-free envelope scan
// that feeds the PBSM build to the envelopes of the decoded geometries:
// the same (id, envelope) pairs in the same order, with NULL and empty
// geometries skipped, over inline and overflow tuples and after DELETE,
// UPDATE and VACUUM. A non-geometry column is an error.
func TestScanMBRMatchesDecodedEnvelopes(t *testing.T) {
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE shapes (id INTEGER, name TEXT, g GEOMETRY)")
	var vals []string
	for i := 0; i < 40; i++ {
		x, y := float64(i%8)*3, float64(i/8)*3
		if i%2 == 0 {
			vals = append(vals, fmt.Sprintf("(%d, 'pt', ST_GeomFromText('POINT (%g %g)'))", i, x, y))
		} else {
			vals = append(vals, fmt.Sprintf("(%d, 'sq', ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
				i, x, y, x+2, y, x+2, y+1.5, x, y+1.5, x, y))
		}
	}
	vals = append(vals,
		"(100, 'null', NULL)",
		"(101, 'empty', ST_GeomFromText('POLYGON EMPTY'))",
		"(102, 'empty', ST_GeomFromText('POINT EMPTY'))")
	// A 1 000-vertex ring encodes to ~16 KB, past the inline limit, so
	// its tuple lives on an overflow chain.
	var ring []string
	for k := 0; k < 1000; k++ {
		a := 2 * math.Pi * float64(k) / 1000
		ring = append(ring, fmt.Sprintf("%g %g", 50+10*math.Cos(a), -20+7*math.Sin(a)))
	}
	ring = append(ring, ring[0])
	vals = append(vals, fmt.Sprintf("(103, 'big', ST_GeomFromText('POLYGON ((%s))'))", strings.Join(ring, ", ")))
	e.MustExec("INSERT INTO shapes VALUES " + strings.Join(vals, ", "))

	st, ok := e.Table("shapes")
	if !ok {
		t.Fatal("shapes missing")
	}
	tbl := st.(*table)
	const col = 2
	check := func(stage string, wantRows int) {
		t.Helper()
		wantIDs, wantEnvs := decodedEnvelopes(t, tbl, col)
		if len(wantIDs) != wantRows {
			t.Fatalf("%s: reference has %d envelopes, want %d", stage, len(wantIDs), wantRows)
		}
		var gotIDs []sql.RowID
		var gotEnvs []geom.Rect
		if err := tbl.ScanMBR(col, func(id sql.RowID, env geom.Rect) bool {
			gotIDs = append(gotIDs, id)
			gotEnvs = append(gotEnvs, env)
			return true
		}); err != nil {
			t.Fatalf("%s: ScanMBR: %v", stage, err)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("%s: ScanMBR yielded %d envelopes, decoded reference %d", stage, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotEnvs[i] != wantEnvs[i] {
				t.Errorf("%s: entry %d: ScanMBR (%v, %+v), decoded (%v, %+v)",
					stage, i, gotIDs[i], gotEnvs[i], wantIDs[i], wantEnvs[i])
			}
		}
	}

	res := e.MustExec("SELECT g FROM shapes WHERE id = 103")
	big := storage.EncodeTuple([]storage.Value{storage.NewInt(103), storage.NewText("big"), res.Rows[0][0]})
	if len(big) <= storage.MaxInlineTuple {
		t.Fatalf("large polygon tuple is %d bytes, inline limit %d: it does not spill", len(big), storage.MaxInlineTuple)
	}

	check("insert", 41)
	e.MustExec("DELETE FROM shapes WHERE id < 10")
	check("delete", 31)
	e.MustExec("UPDATE shapes SET g = ST_GeomFromText('POINT (-5 -5)') WHERE id = 20")
	e.MustExec("UPDATE shapes SET g = NULL WHERE id = 21")
	e.MustExec("UPDATE shapes SET g = ST_GeomFromText('LINESTRING (1 1, 4 9)') WHERE id = 101")
	check("update", 31)
	e.MustExec("VACUUM shapes")
	check("vacuum", 31)

	for _, bad := range []int{1, 0, -1, 3} {
		if err := tbl.ScanMBR(bad, func(sql.RowID, geom.Rect) bool { return true }); err == nil {
			t.Errorf("ScanMBR on column %d accepted", bad)
		}
	}
}
