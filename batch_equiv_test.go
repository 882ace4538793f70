package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/storage"
	"jackpine/internal/wire"
)

// TestBatchEquivalence runs the entire micro suite (MT1–MT15, MA1–MA12)
// and all six macro scenarios on a serial and a parallel engine, over
// both the in-process and the wire transport. The brute-force oracle
// (refexec) must admit every result of the serial in-process runs, or
// fail with the same error text, and every other run must return those
// results byte for byte: same rows, same order, same float rendering.
// Batch activity counters prove the cascade ran on both engines.
func TestBatchEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)

	ser := OpenEngine(GaiaDB(), WithParallelism(1))
	par := OpenEngine(GaiaDB(), WithParallelism(8))
	for _, eng := range []*Engine{ser, par} {
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
	}

	ctx := NewQueryContext(ds)
	serConn, err := Connect(ser).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer serConn.Close()
	parConn, err := Connect(par).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer parConn.Close()
	srv := wire.NewServer(par)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	parWire, err := ConnectRemote(addr, "par").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer parWire.Close()
	oracle := oracleConn{serConn, ser, t}

	// Micro suite: the serial run against the oracle, the parallel run
	// in-process and over the wire against the serial one.
	for _, q := range MicroSuite() {
		sql := q.SQL(ctx, 0)
		rs, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("%s serial: %v", q.ID, err)
		}
		want := canonRows(rs)
		for name, conn := range map[string]Conn{"in-process": parConn, "wire": parWire} {
			rs, err := conn.Query(sql)
			if err != nil {
				t.Fatalf("%s parallel %s: %v", q.ID, name, err)
			}
			if got := canonRows(rs); got != want {
				t.Errorf("%s: parallel %s run diverges\nserial:\n%s\nparallel:\n%s", q.ID, name, want, got)
			}
		}
	}

	// All six macro scenarios, every chained query compared, over both
	// transports. MS5 mutates parcels; driving both engines through the
	// same operations keeps their states in lockstep.
	for _, sc := range MacroSuite() {
		for name, conn := range map[string]Conn{"inproc": parConn, "wire": parWire} {
			var serLog, parLog strings.Builder
			for iter := 0; iter < 2; iter++ {
				if _, err := sc.Run(ctx, recordingConn{oracle, &serLog}, iter); err != nil {
					t.Fatalf("%s serial (%s) iter %d: %v", sc.ID, name, iter, err)
				}
				if _, err := sc.Run(ctx, recordingConn{conn, &parLog}, iter); err != nil {
					t.Fatalf("%s parallel (%s) iter %d: %v", sc.ID, name, iter, err)
				}
			}
			if serLog.String() != parLog.String() {
				t.Errorf("%s (%s): parallel run diverges\nserial:\n%s\nparallel:\n%s",
					sc.ID, name, serLog.String(), parLog.String())
			}
		}
	}

	for _, eng := range []*Engine{ser, par} {
		if batches, rows := eng.BatchStats(); batches == 0 || rows == 0 {
			t.Errorf("an engine processed no batches (batches=%d rows=%d)", batches, rows)
		}
		requireNoPins(t, eng)
	}
}

// TestLateMaterializationEquivalence is the rail for late
// materialization and compiled comparisons. Stage 0 decodes only the
// columns its filters read until a row survives them, and comparison
// filters run as compiled comparators in the batch cascade and in join
// stages. Each statement below runs on a serial engine, whose result
// the brute-force oracle (refexec) must admit, or whose error it must
// raise, and on an engine at parallelism 1 and 8, which must return the
// serial result byte for byte: filtered self-joins, SELECT *, ORDER BY
// and GROUP BY on a column the filter does not read, UPDATE and DELETE
// by id, NULLs in the compared column, int against float, text equality
// and a window whose filter keeps every row.
func TestLateMaterializationEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ser := OpenEngine(GaiaDB(), WithParallelism(1))
	eng := OpenEngine(GaiaDB())
	for _, e := range []*Engine{ser, eng} {
		if err := LoadDataset(e, ds, true); err != nil {
			t.Fatal(err)
		}
	}
	run := func(eng *Engine, q string) string { return execResult(eng.Exec(q)) }
	one := func(q string) storage.Value {
		res := ser.MustExec(q)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
		}
		return res.Rows[0][0]
	}
	k := one("SELECT MAX(id) FROM parcels").Int / 2
	owner := one(fmt.Sprintf("SELECT owner FROM parcels WHERE id = %d", k)).Text
	e := ds.Extent
	all := fmt.Sprintf("ST_MakeEnvelope(%g, %g, %g, %g)", e.MinX-1, e.MinY-1, e.MaxX+1, e.MaxY+1)

	for _, par := range []int{1, 8} {
		eng.SetParallelism(par)
		// Each parallelism gets its own DML ids, so the second pass
		// rewrites fresh rows; both engines take every write in lockstep.
		d := k + int64(par)
		stmts := []string{
			fmt.Sprintf("UPDATE parcels SET owner = 'late %d' WHERE id = %d", par, d+1),
			fmt.Sprintf("UPDATE parcels SET id = NULL WHERE id = %d", d+2),
			fmt.Sprintf("UPDATE parcels SET owner = NULL WHERE id = %d", d+3),
			fmt.Sprintf("DELETE FROM parcels WHERE id = %d", d+4),
			fmt.Sprintf("SELECT b.id, b.owner, b.landuse FROM parcels a JOIN parcels b "+
				"ON ST_Touches(b.geo, a.geo) WHERE a.id = %d", k),
			fmt.Sprintf("SELECT b.id FROM parcels a JOIN parcels b "+
				"ON ST_Touches(b.geo, a.geo) WHERE a.id = %d AND a.id > b.id", k),
			fmt.Sprintf("SELECT * FROM parcels WHERE id = %d", k),
			fmt.Sprintf("SELECT * FROM parcels WHERE id = %d", d+1),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id < %d ORDER BY owner DESC, id", k),
			fmt.Sprintf("SELECT landuse, COUNT(*), SUM(ST_Area(geo)) FROM parcels WHERE id > %d GROUP BY landuse ORDER BY landuse", k),
			"SELECT COUNT(*) FROM parcels WHERE id IS NULL",
			fmt.Sprintf("SELECT id, landuse FROM parcels WHERE id <> %d", k),
			fmt.Sprintf("SELECT id FROM parcels WHERE %d >= id", d+3),
			"SELECT id FROM parcels WHERE id = NULL",
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE owner = 'late %d'", par),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id = %d", d+3),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id = %d.0", k),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id < %d.5", k),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE owner = '%s'", owner),
			"SELECT id FROM parcels WHERE owner = landuse",
			"SELECT id FROM parcels WHERE owner = 1",
			"SELECT id FROM parcels WHERE geo = 1",
			fmt.Sprintf("SELECT id, owner, landuse FROM parcels WHERE ST_Intersects(geo, %s)", all),
			fmt.Sprintf("SELECT * FROM parcels WHERE ST_Intersects(geo, %s) AND id >= 0", all),
			"SELECT * FROM parcels",
		}
		for _, q := range stmts {
			want, got := oracleExec(t, ser, q), run(eng, q)
			if got != want {
				t.Errorf("parallelism %d: %s\nserial:\n%s\ngot:\n%s", par, q, want, got)
			}
		}
	}
	for _, e := range []*Engine{ser, eng} {
		if batches, rows := e.BatchStats(); batches == 0 || rows == 0 {
			t.Errorf("an engine processed no batches (batches=%d rows=%d)", batches, rows)
		}
		requireNoPins(t, e)
	}
}

// TestPrefilterEquivalence is the rail for filtering before copying:
// every stage-0 scan or fetch tests stage 0's column-versus-literal
// comparisons on each stored tuple and copies only survivors into the
// batch. Each statement runs on a serial engine, whose result the
// brute-force oracle (refexec) must admit, or whose error it must raise,
// and on an engine at parallelism 1 and 8, which must return the serial
// result byte for byte: equality with the literal on either side,
// ranges, <>, int columns against float literals, text comparisons
// (landuse and category are index seeks, owner and name full scans), a
// NULL id, UPDATE and DELETE by id, the land-information and flood-risk
// joins, and an incomparable literal.
func TestPrefilterEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ser := OpenEngine(GaiaDB(), WithParallelism(1))
	eng := OpenEngine(GaiaDB())
	for _, e := range []*Engine{ser, eng} {
		if err := LoadDataset(e, ds, true); err != nil {
			t.Fatal(err)
		}
	}
	run := func(eng *Engine, q string) string { return execResult(eng.Exec(q)) }
	one := func(q string) storage.Value {
		res := ser.MustExec(q)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
		}
		return res.Rows[0][0]
	}
	k := one("SELECT MAX(id) FROM parcels").Int / 2
	landuse := one(fmt.Sprintf("SELECT landuse FROM parcels WHERE id = %d", k)).Text
	pk := one("SELECT MAX(id) FROM pointlm").Int / 2
	category := one(fmt.Sprintf("SELECT category FROM pointlm WHERE id = %d", pk)).Text
	owner := one(fmt.Sprintf("SELECT owner FROM parcels WHERE id = %d", k)).Text
	name := one(fmt.Sprintf("SELECT name FROM pointlm WHERE id = %d", pk)).Text
	wid := one("SELECT MIN(id) FROM areawater").Int

	var explained bool
	for _, row := range eng.MustExec(fmt.Sprintf("EXPLAIN SELECT id FROM parcels WHERE id = %d", k)).Rows {
		explained = explained || row[0].Text == "prefilter"
	}
	if !explained {
		t.Fatal("the engine does not push id = k into its scan")
	}

	for _, par := range []int{1, 8} {
		eng.SetParallelism(par)
		// Each parallelism gets its own DML ids; both engines take every
		// write in lockstep.
		d := k + 10*int64(par)
		stmts := []string{
			fmt.Sprintf("SELECT * FROM parcels WHERE id = %d", k),
			fmt.Sprintf("SELECT * FROM parcels WHERE %d = id", k),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id < %d", k),
			fmt.Sprintf("SELECT id, landuse FROM parcels WHERE id >= %d AND id < %d", k, k+50),
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE id <> %d", k),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id = %d.0", k),
			fmt.Sprintf("SELECT COUNT(*), MAX(id) FROM parcels WHERE id < %d.5", k),
			fmt.Sprintf("SELECT id FROM parcels WHERE landuse = '%s'", landuse),
			fmt.Sprintf("SELECT id, name FROM pointlm WHERE category = '%s'", category),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE owner = '%s'", owner),
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE '%s' < owner AND id > %d", owner, k),
			fmt.Sprintf("SELECT id, category FROM pointlm WHERE name = '%s'", name),
			fmt.Sprintf("SELECT COUNT(*) FROM pointlm WHERE name >= '%s' AND '%s' <> category", name, category),
			fmt.Sprintf("UPDATE parcels SET id = NULL WHERE id = %d", d),
			"SELECT COUNT(*) FROM parcels WHERE id IS NULL",
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE id <> %d", k),
			fmt.Sprintf("SELECT id, owner FROM parcels WHERE id > %d AND id < %d", d-3, d+3),
			fmt.Sprintf("UPDATE parcels SET landuse = 'public' WHERE id = %d", d+1),
			fmt.Sprintf("SELECT id, landuse FROM parcels WHERE id = %d", d+1),
			fmt.Sprintf("DELETE FROM pointlm WHERE id = %d", pk+int64(par)),
			fmt.Sprintf("SELECT COUNT(*) FROM pointlm WHERE id = %d", pk+int64(par)),
			fmt.Sprintf("DELETE FROM parcels WHERE id = %d", d+2),
			fmt.Sprintf("SELECT b.id, b.owner, b.landuse FROM parcels a JOIN parcels b "+
				"ON ST_Touches(b.geo, a.geo) WHERE a.id = %d", k),
			fmt.Sprintf("SELECT p.id, ST_Area(ST_Intersection(p.geo, ST_Buffer(w.geo, 40))) "+
				"FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) "+
				"WHERE w.id = %d", wid),
			"SELECT id FROM parcels WHERE id = 'x'",
		}
		for _, q := range stmts {
			want, got := oracleExec(t, ser, q), run(eng, q)
			if got != want {
				t.Errorf("parallelism %d: %s\nserial:\n%s\ngot:\n%s", par, q, want, got)
			}
		}
		if want := run(ser, "SELECT id FROM parcels WHERE id = 'x'"); !strings.HasPrefix(want, "error: ") {
			t.Errorf("id = 'x' did not fail on the serial engine: %s", want)
		}
	}
	for _, e := range []*Engine{ser, eng} {
		if batches, rows := e.BatchStats(); batches == 0 || rows == 0 {
			t.Errorf("an engine processed no batches (batches=%d rows=%d)", batches, rows)
		}
		requireNoPins(t, e)
	}
}
