package engine

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"jackpine/internal/sql"
)

// mustOpenDurable fails the test on error.
func mustOpenDurable(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	e, err := OpenDurable(GaiaDB(), dir, opts...)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return e
}

// transcript renders a result set deterministically.
func transcript(res *sql.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	e.MustExec("CREATE TABLE pts (id INT, name TEXT, g GEOMETRY)")
	e.MustExec("CREATE SPATIAL INDEX sx ON pts (g)")
	e.MustExec("CREATE INDEX ix ON pts (name)")
	for i := 0; i < 300; i++ {
		e.MustExec(fmt.Sprintf(
			"INSERT INTO pts VALUES (%d, 'p%d', ST_GeomFromText('POINT(%d %d)'))", i, i, i%50, i/50))
	}
	e.MustExec("DELETE FROM pts WHERE id = 7")
	const q = "SELECT id, name, ST_AsText(g) FROM pts WHERE ST_Within(g, ST_GeomFromText('POLYGON((0 0, 20 0, 20 4, 0 4, 0 0))')) ORDER BY id"
	want := transcript(e.MustExec(q))
	wantCount := transcript(e.MustExec("SELECT COUNT(*) FROM pts"))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := mustOpenDurable(t, dir)
	defer r.Close()
	if got := transcript(r.MustExec(q)); got != want {
		t.Errorf("reopened transcript differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := transcript(r.MustExec("SELECT COUNT(*) FROM pts")); got != wantCount {
		t.Errorf("reopened count differs: got %q want %q", got, wantCount)
	}
	// The reopened engine keeps accepting writes and the ids continue.
	r.MustExec("INSERT INTO pts VALUES (1000, 'late', ST_GeomFromText('POINT(1 1)'))")
	res := r.MustExec("SELECT name FROM pts WHERE id = 1000")
	if len(res.Rows) != 1 {
		t.Fatalf("post-reopen insert not visible: %d rows", len(res.Rows))
	}
}

func TestDurableEmptyDatabaseReopens(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := mustOpenDurable(t, dir)
	if names := r.TableNames(); len(names) != 0 {
		t.Errorf("fresh reopen has tables: %v", names)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("reclose: %v", err)
	}
}

func TestDurableProfileMismatchRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	e.MustExec("CREATE TABLE x (id INT)")
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := OpenDurable(MySpatial(), dir); err == nil {
		t.Fatal("opening a GaiaDB directory as MySpatial should fail")
	}
}

func TestDurableCheckpointAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	e.MustExec("CREATE TABLE x (id INT, v TEXT)")
	for i := 0; i < 50; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO x VALUES (%d, 'v%d')", i, i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Write more after the checkpoint so recovery replays a non-empty log.
	for i := 50; i < 80; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO x VALUES (%d, 'v%d')", i, i))
	}
	want := transcript(e.MustExec("SELECT id, v FROM x ORDER BY id"))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := mustOpenDurable(t, dir)
	defer r.Close()
	if got := transcript(r.MustExec("SELECT id, v FROM x ORDER BY id")); got != want {
		t.Errorf("post-checkpoint reopen differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDurableVacuumSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	e.MustExec("CREATE TABLE x (id INT, g GEOMETRY)")
	e.MustExec("CREATE SPATIAL INDEX sx ON x (g)")
	for i := 0; i < 100; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO x VALUES (%d, ST_GeomFromText('POINT(%d 0)'))", i, i))
	}
	for i := 0; i < 100; i += 2 {
		e.MustExec(fmt.Sprintf("DELETE FROM x WHERE id = %d", i))
	}
	e.MustExec("VACUUM x")
	want := transcript(e.MustExec("SELECT id FROM x ORDER BY id"))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := mustOpenDurable(t, dir)
	defer r.Close()
	if got := transcript(r.MustExec("SELECT id FROM x ORDER BY id")); got != want {
		t.Errorf("vacuumed table differs after reopen:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurableFailedUpdateLeavesNoTrace: an UPDATE whose SET fails on its
// second target row must not have rewritten the first. Were the first
// row rewritten before the error, the next statement's commit would log
// that dirty page and the half-applied update would survive a reopen.
func TestDurableFailedUpdateLeavesNoTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	e.MustExec("CREATE TABLE t (id INT, w TEXT, geo GEOMETRY)")
	e.MustExec("INSERT INTO t VALUES (1, 'POINT(1 1)', NULL), (2, 'garbage', NULL), (3, 'POINT(3 3)', NULL)")
	const q = "SELECT id, w, ST_AsText(geo) FROM t ORDER BY id"
	want := transcript(e.MustExec(q))
	if _, err := e.Exec("UPDATE t SET geo = w"); err == nil || !strings.Contains(err.Error(), "GARBAGE") {
		t.Fatalf("UPDATE t SET geo = w: err %v, want a WKT parse error on 'garbage'", err)
	}
	if got := transcript(e.MustExec(q)); got != want {
		t.Errorf("failed UPDATE changed the table:\ngot:\n%s\nwant:\n%s", got, want)
	}
	e.MustExec("INSERT INTO t VALUES (4, 'later', NULL)")
	want += "4|later|NULL\n"
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := mustOpenDurable(t, dir)
	defer r.Close()
	if got := transcript(r.MustExec(q)); got != want {
		t.Errorf("after reopen:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDurableCacheCounters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e := mustOpenDurable(t, dir)
	defer e.Close()
	e.MustExec("CREATE TABLE x (id INT)")
	e.MustExec("INSERT INTO x VALUES (1)")
	cc := e.CacheCounters()
	if !cc.WALEnabled {
		t.Fatal("WALEnabled false on a durable engine")
	}
	if cc.WALAppends == 0 || cc.WALFsyncs == 0 {
		t.Errorf("expected WAL activity, got appends=%d fsyncs=%d", cc.WALAppends, cc.WALFsyncs)
	}
	if cc.DirtyPages == 0 {
		t.Errorf("expected dirty pages before checkpoint")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := e.CacheCounters().DirtyPages; got != 0 {
		t.Errorf("dirty pages after checkpoint = %d, want 0", got)
	}
	mem := Open(GaiaDB())
	defer mem.Close()
	if mem.CacheCounters().WALEnabled {
		t.Error("WALEnabled true on an in-memory engine")
	}
}
