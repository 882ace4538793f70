package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/storage"
	"jackpine/internal/wire"
)

// TestBatchEquivalence runs the entire micro suite (MT1–MT15, MA1–MA12)
// and all six macro scenarios on two engines — batch execution disabled
// versus enabled — over both the in-process and the wire transport, and
// requires byte-identical results from every query: same rows, same
// order, same float rendering. The batch path replaces only how stage-0
// rows move through the scan and filter cascade, so any divergence
// means batching changed semantics. Batch activity counters prove the
// intended path actually ran on each engine. The row arm is the serial
// row-at-a-time reference at every parallelism setting: with batch
// execution off, stage 0 never fans out.
func TestBatchEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)

	off := OpenEngine(GaiaDB(), WithBatchExec(false))
	on := OpenEngine(GaiaDB())
	for _, eng := range []*Engine{off, on} {
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
	}

	ctx := NewQueryContext(ds)
	offConn, err := Connect(off).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer offConn.Close()
	onConn, err := Connect(on).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer onConn.Close()

	// Micro suite, in-process, at parallelism 1 and 8: the batch arm
	// fans out at 8, the row arm stays serial at both.
	for _, par := range []int{1, 8} {
		off.SetParallelism(par)
		on.SetParallelism(par)
		for _, q := range MicroSuite() {
			sql := q.SQL(ctx, 0)
			rs, err := offConn.Query(sql)
			if err != nil {
				t.Fatalf("%s row path at parallelism %d: %v", q.ID, par, err)
			}
			want := canonRows(rs)
			rs, err = onConn.Query(sql)
			if err != nil {
				t.Fatalf("%s batch path at parallelism %d: %v", q.ID, par, err)
			}
			if got := canonRows(rs); got != want {
				t.Errorf("%s: batch path at parallelism %d diverges\nrow path:\n%s\nbatch path:\n%s",
					q.ID, par, want, got)
			}
		}
	}
	off.SetParallelism(1)
	on.SetParallelism(1)

	// Micro suite over the wire transport.
	offSrv, onSrv := wire.NewServer(off), wire.NewServer(on)
	offAddr, err := offSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer offSrv.Close()
	onAddr, err := onSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer onSrv.Close()
	offWire, err := ConnectRemote(offAddr, "off").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer offWire.Close()
	onWire, err := ConnectRemote(onAddr, "on").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer onWire.Close()
	for _, q := range MicroSuite() {
		sql := q.SQL(ctx, 0)
		rs, err := offWire.Query(sql)
		if err != nil {
			t.Fatalf("%s row path over wire: %v", q.ID, err)
		}
		want := canonRows(rs)
		rs, err = onWire.Query(sql)
		if err != nil {
			t.Fatalf("%s batch path over wire: %v", q.ID, err)
		}
		if got := canonRows(rs); got != want {
			t.Errorf("%s: batch path over wire diverges\nrow path:\n%s\nbatch path:\n%s",
				q.ID, want, got)
		}
	}

	// All six macro scenarios, every chained query compared, over both
	// transports. MS5 mutates parcels; driving both engines through the
	// same operations keeps their states in lockstep.
	for _, sc := range MacroSuite() {
		for name, conns := range map[string][2]Conn{
			"inproc": {offConn, onConn},
			"wire":   {offWire, onWire},
		} {
			var offLog, onLog strings.Builder
			for iter := 0; iter < 2; iter++ {
				if _, err := sc.Run(ctx, recordingConn{conns[0], &offLog}, iter); err != nil {
					t.Fatalf("%s row path (%s) iter %d: %v", sc.ID, name, iter, err)
				}
				if _, err := sc.Run(ctx, recordingConn{conns[1], &onLog}, iter); err != nil {
					t.Fatalf("%s batch path (%s) iter %d: %v", sc.ID, name, iter, err)
				}
			}
			if offLog.String() != onLog.String() {
				t.Errorf("%s (%s): batch run diverges\nrow path:\n%s\nbatch path:\n%s",
					sc.ID, name, offLog.String(), onLog.String())
			}
		}
	}

	// The sweep must have driven the batch executor on the enabled
	// engine and never on the disabled one.
	if batches, rows := on.BatchStats(); batches == 0 || rows == 0 {
		t.Errorf("batch engine processed no batches (batches=%d rows=%d)", batches, rows)
	}
	if batches, rows := off.BatchStats(); batches != 0 || rows != 0 {
		t.Errorf("disabled engine processed %d batches (%d rows)", batches, rows)
	}
	requireNoPins(t, off)
	requireNoPins(t, on)
}

// TestLateMaterializationEquivalence is the rail for late
// materialization and compiled comparisons. A batched stage 0 decodes
// only the columns its filters read until a row survives them, and
// comparison filters run as compiled comparators in the batch cascade
// and in join stages. Each statement below runs on a batch engine at
// parallelism 1 and 8 and on the serial row-path reference
// (WithBatchExec(false)), and must return byte-identical rows or the
// same error text: filtered self-joins, SELECT *, ORDER BY and GROUP BY
// on a column the filter does not read, UPDATE and DELETE by id, NULLs
// in the compared column, int against float, text equality and a
// window whose filter keeps every row.
func TestLateMaterializationEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	off := OpenEngine(GaiaDB(), WithBatchExec(false))
	on := OpenEngine(GaiaDB())
	for _, eng := range []*Engine{off, on} {
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
	}
	run := func(eng *Engine, q string) string {
		res, err := eng.Exec(q)
		if err != nil {
			return "error: " + err.Error()
		}
		if res.Columns == nil {
			return fmt.Sprintf("affected %d", res.Affected)
		}
		return canonRows(&ResultSet{Columns: res.Columns, Rows: res.Rows})
	}
	one := func(q string) storage.Value {
		res := off.MustExec(q)
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
		off.SetParallelism(par)
		on.SetParallelism(par)
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
			want, got := run(off, q), run(on, q)
			if got != want {
				t.Errorf("parallelism %d: %s\nrow path:\n%s\nbatch path:\n%s", par, q, want, got)
			}
		}
	}
	if batches, rows := on.BatchStats(); batches == 0 || rows == 0 {
		t.Errorf("batch engine processed no batches (batches=%d rows=%d)", batches, rows)
	}
	if batches, _ := off.BatchStats(); batches != 0 {
		t.Errorf("disabled engine processed %d batches", batches)
	}
	requireNoPins(t, off)
	requireNoPins(t, on)
}

// TestPrefilterEquivalence is the rail for filtering before copying: a
// batched full scan tests stage 0's column-versus-literal comparisons on
// each page-resident tuple and copies only survivors into the batch.
// Each statement runs on a batch engine at parallelism 1 and 8 and on
// the serial row-path reference (WithBatchExec(false)), and must return
// byte-identical rows or the same error text: equality with the literal
// on either side, ranges, <>, int columns against float literals, text
// comparisons (landuse and category are index seeks, owner and name
// full scans), a NULL id, UPDATE and DELETE by id, the land-information
// and flood-risk joins, and an incomparable literal.
func TestPrefilterEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	off := OpenEngine(GaiaDB(), WithBatchExec(false))
	on := OpenEngine(GaiaDB())
	for _, eng := range []*Engine{off, on} {
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
	}
	run := func(eng *Engine, q string) string {
		res, err := eng.Exec(q)
		if err != nil {
			return "error: " + err.Error()
		}
		if res.Columns == nil {
			return fmt.Sprintf("affected %d", res.Affected)
		}
		return canonRows(&ResultSet{Columns: res.Columns, Rows: res.Rows})
	}
	one := func(q string) storage.Value {
		res := off.MustExec(q)
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
	for _, row := range on.MustExec(fmt.Sprintf("EXPLAIN SELECT id FROM parcels WHERE id = %d", k)).Rows {
		explained = explained || row[0].Text == "prefilter"
	}
	if !explained {
		t.Fatal("the batch engine does not push id = k into its scan")
	}

	for _, par := range []int{1, 8} {
		off.SetParallelism(par)
		on.SetParallelism(par)
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
			want, got := run(off, q), run(on, q)
			if got != want {
				t.Errorf("parallelism %d: %s\nrow path:\n%s\nbatch path:\n%s", par, q, want, got)
			}
		}
		if want := run(off, "SELECT id FROM parcels WHERE id = 'x'"); !strings.HasPrefix(want, "error: ") {
			t.Errorf("id = 'x' did not fail on the reference: %s", want)
		}
	}
	if batches, rows := on.BatchStats(); batches == 0 || rows == 0 {
		t.Errorf("batch engine processed no batches (batches=%d rows=%d)", batches, rows)
	}
	if batches, _ := off.BatchStats(); batches != 0 {
		t.Errorf("disabled engine processed %d batches", batches)
	}
	requireNoPins(t, off)
	requireNoPins(t, on)
}
