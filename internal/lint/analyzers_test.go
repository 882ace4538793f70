package lint_test

import (
	"testing"

	"jackpine/internal/lint"
	"jackpine/internal/lint/linttest"
)

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, "testdata", lint.FloatCmp, "fc/internal/topo")
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", lint.LockDiscipline, "ld/internal/engine")
}

func TestCtxPropagate(t *testing.T) {
	linttest.Run(t, "testdata", lint.CtxPropagate,
		"cp/internal/wire", "cp/internal/cluster")
}

func TestErrWrap(t *testing.T) {
	linttest.Run(t, "testdata", lint.ErrWrap, "ew/internal/wire")
}

func TestSyncErr(t *testing.T) {
	linttest.Run(t, "testdata", lint.SyncErr,
		"se/internal/storage", "se/internal/storage/wal")
}

func TestLockOrder(t *testing.T) {
	linttest.RunModule(t, "testdata", lint.LockOrder,
		"lo/internal/engine", "lo/internal/wal")
}

// TestLockOrderGraph pins the full deterministic edge dump behind the
// jackpinevet -lockgraph flag: the interface-dispatch edges from the
// engine, the wal-internal cycle, and nothing from the goroutine,
// conditional-lock, or same-class patterns.
func TestLockOrderGraph(t *testing.T) {
	pkgs := linttest.Packages(t, "testdata", "lo/internal/engine", "lo/internal/wal")
	got := lint.LockGraph(pkgs)
	want := []string{
		"engine.Engine.mu -> wal.WAL.mu",
		"engine.Engine.mu -> wal.WAL.syncMu",
		"wal.WAL.mu -> wal.WAL.syncMu",
		"wal.WAL.syncMu -> wal.WAL.mu",
	}
	if len(got) != len(want) {
		t.Fatalf("lock graph = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lock graph[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAnalyzersScopeOut pins that analyzers stay silent on packages outside
// their scope: the fixture trees are full of each other's violations, but an
// analyzer must only speak inside the package set its invariant covers.
func TestAnalyzersScopeOut(t *testing.T) {
	cases := []struct {
		a   *lint.Analyzer
		pkg string
	}{
		{lint.FloatCmp, "ew/internal/wire"},
		{lint.CtxPropagate, "ld/internal/engine"},
		{lint.ErrWrap, "fc/internal/topo"},
		{lint.SyncErr, "se/internal/wire"},
		{lint.LockDiscipline, "se/internal/storage"},
	}
	for _, c := range cases {
		if diags := linttest.Diagnostics(t, "testdata", c.a, c.pkg); len(diags) > 0 {
			t.Errorf("%s on %s: expected silence, got %v", c.a.Name, c.pkg, diags)
		}
	}
}
