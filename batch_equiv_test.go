package jackpine

import (
	"strings"
	"testing"

	"jackpine/internal/wire"
)

// TestBatchEquivalence runs the entire micro suite (MT1–MT15, MA1–MA12)
// and all six macro scenarios on two engines — batch execution disabled
// versus enabled — over both the in-process and the wire transport, and
// requires byte-identical results from every query: same rows, same
// order, same float rendering. The batch path replaces only how stage-0
// rows move through the scan and filter cascade, so any divergence
// means batching changed semantics. Batch activity counters prove the
// intended path actually ran on each engine.
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

	// Micro suite, in-process, serial and parallel.
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
}
