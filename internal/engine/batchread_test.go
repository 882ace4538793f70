package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// decodedRows is the independent reference for the batch reader: every
// live record in heap order, read with heap.Get and decoded whole by
// storage.DecodeTuple.
func decodedRows(t *testing.T, tbl *table) ([]sql.RowID, [][]storage.Value) {
	t.Helper()
	var rids []storage.RecordID
	if err := tbl.heap.Scan(func(rid storage.RecordID, _ []byte) bool {
		rids = append(rids, rid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	ids := make([]sql.RowID, len(rids))
	rows := make([][]storage.Value, len(rids))
	for i, rid := range rids {
		tuple, err := tbl.heap.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i], err = storage.DecodeTuple(tuple, len(tbl.cols)); err != nil {
			t.Fatalf("record %s: %v", rid, err)
		}
		ids[i] = sql.PackRowID(rid)
	}
	return ids, rows
}

// TestBatchReadMatchesDecode pins the table's one read contract to the
// stored tuples: an unfiltered, all-column ScanBatch over one and over
// three shards, and a FetchBatch of every id in chunks, yield exactly
// the live records in heap order, each equal to its whole-tuple decode
// (decodedRows). The table holds NULLs in every column, empty
// geometries, deleted rows and text long enough to overflow a page.
func TestBatchReadMatchesDecode(t *testing.T) {
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE r (id INTEGER, name TEXT, x FLOAT, ok BOOLEAN, g GEOMETRY)")
	var vals []string
	for i := 0; i < 700; i++ {
		g := fmt.Sprintf("ST_MakePoint(%d, %d)", i%37, i/37)
		switch i % 7 {
		case 1:
			g = "ST_GeomFromText('POLYGON EMPTY')"
		case 2:
			g = "NULL"
		case 3:
			g = fmt.Sprintf("ST_GeomFromText('LINESTRING (%d 0, %d 5)')", i, i+1)
		}
		vals = append(vals, fmt.Sprintf("(%d, 'n%d', %d.5, %t, %s)", i, i, i, i%2 == 0, g))
	}
	vals = append(vals,
		"(NULL, NULL, NULL, NULL, NULL)",
		fmt.Sprintf("(801, '%s', 1.0, TRUE, ST_MakePoint(1, 1))", strings.Repeat("long text ", 2000)))
	e.MustExec("INSERT INTO r VALUES " + strings.Join(vals, ", "))
	e.MustExec("DELETE FROM r WHERE id % 5 = 0 OR id BETWEEN 300 AND 360")

	st, ok := e.Table("r")
	if !ok {
		t.Fatal("table r missing")
	}
	tbl := st.(*table)
	wantIDs, wantRows := decodedRows(t, tbl)
	if len(wantIDs) < 2*storage.BatchSize || tbl.heap.NumPages() < 3 {
		t.Fatalf("%d live rows on %d pages: too few for several batches and shards", len(wantIDs), tbl.heap.NumPages())
	}
	overflow := false
	for _, row := range wantRows {
		if len(storage.EncodeTuple(row)) > storage.MaxInlineTuple {
			overflow = true
		}
	}
	if !overflow {
		t.Fatal("no tuple overflows a page")
	}

	check := func(read string, ids []sql.RowID, rows [][]byte) {
		t.Helper()
		if len(ids) != len(wantIDs) {
			t.Fatalf("%s: %d rows, decoded reference %d", read, len(ids), len(wantIDs))
		}
		for i, id := range ids {
			if want := storage.EncodeTuple(wantRows[i]); id != wantIDs[i] || !bytes.Equal(rows[i], want) {
				t.Fatalf("%s: row %d is %v %x, decoded reference %v %x", read, i, id, rows[i], wantIDs[i], want)
			}
		}
	}
	collect := func(ids *[]sql.RowID, rows *[][]byte, b *storage.ColBatch) {
		for _, s := range b.Sel {
			*ids = append(*ids, sql.RowID(b.ID(s)))
			*rows = append(*rows, storage.EncodeTuple(b.Row(s)))
		}
	}
	for _, shards := range []int{1, 3} {
		var ids []sql.RowID
		var rows [][]byte
		for shard := 0; shard < shards; shard++ {
			if err := tbl.ScanBatch(shard, shards, sql.AllColumns(), func(b *storage.ColBatch) (bool, error) {
				collect(&ids, &rows, b)
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("ScanBatch over %d shards", shards), ids, rows)
	}
	for _, chunk := range []int{1, 7, storage.BatchSize} {
		var ids []sql.RowID
		var rows [][]byte
		b := new(storage.ColBatch)
		for lo := 0; lo < len(wantIDs); lo += chunk {
			if err := tbl.FetchBatch(wantIDs[lo:min(lo+chunk, len(wantIDs))], sql.AllColumns(), b); err != nil {
				t.Fatal(err)
			}
			collect(&ids, &rows, b)
		}
		check(fmt.Sprintf("FetchBatch in chunks of %d", chunk), ids, rows)
	}
}
