package experiments

import (
	"strings"
	"testing"

	"jackpine/internal/core"
	"jackpine/internal/engine"
	"jackpine/internal/tiger"
)

// fastConfig keeps experiment tests quick.
func fastConfig() Config {
	return Config{
		Scale:    tiger.Small,
		Seed:     1,
		Opts:     core.Options{Warmup: 0, Runs: 1, Clients: 1},
		Profiles: engine.AllProfiles(),
	}
}

var cachedEnv *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if cachedEnv == nil {
		env, err := Setup(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedEnv = env
	}
	return cachedEnv
}

func TestSetupLoadsAllProfiles(t *testing.T) {
	env := testEnv(t)
	if len(env.Engines) != 3 || len(env.Connectors) != 3 {
		t.Fatalf("engines=%d connectors=%d", len(env.Engines), len(env.Connectors))
	}
	for _, eng := range env.Engines {
		res, err := eng.Exec("SELECT COUNT(*) FROM edges")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int != int64(len(env.Dataset.Edges)) {
			t.Errorf("%s: edge count %v", eng.Profile().Name, res.Rows[0][0])
		}
	}
}

func TestE1Output(t *testing.T) {
	var sb strings.Builder
	if err := RunE1(&sb, fastConfig()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"edges", "areawater", "arealm", "pointlm", "parcels", "TOTAL"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestE2E3E4Output(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := RunE2(&sb, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MT15") || !strings.Contains(sb.String(), "unsupported") {
		t.Errorf("E2 output incomplete:\n%s", sb.String())
	}
	sb.Reset()
	if err := RunE3(&sb, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MA12") {
		t.Error("E3 output incomplete")
	}
	sb.Reset()
	if err := RunE4(&sb, env); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"MS1", "MS2", "MS3", "MS4", "MS5", "MS6"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("E4 output missing %s", id)
		}
	}
}

func TestE5ShowsSpeedup(t *testing.T) {
	var sb strings.Builder
	if err := RunE5(&sb, fastConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") || !strings.Contains(sb.String(), "x") {
		t.Errorf("E5 output:\n%s", sb.String())
	}
}

func TestE6SmallOnly(t *testing.T) {
	var sb strings.Builder
	if err := RunE6(&sb, fastConfig(), []tiger.Scale{tiger.Small}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "small") || !strings.Contains(sb.String(), "MS2") {
		t.Errorf("E6 output:\n%s", sb.String())
	}
}

func TestE7RequiresBothSemantics(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := RunE7(&sb, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "exact_count") {
		t.Error("E7 output incomplete")
	}
	// Without an MBR profile, E7 must refuse.
	exactOnly, err := Setup(Config{
		Scale: tiger.Small, Seed: 1,
		Opts:     core.Options{Runs: 1},
		Profiles: []engine.Profile{engine.GaiaDB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunE7(&sb, exactOnly); err == nil {
		t.Error("E7 with a single profile should fail")
	}
}

func TestE8Matrix(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := RunE8(&sb, env); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MBR-only") {
		t.Error("E8 should mark MBR-only predicates")
	}
	if !strings.Contains(out, "ST_Relate") {
		t.Error("E8 missing functions")
	}
}

func TestE10E11Output(t *testing.T) {
	env := testEnv(t)
	var sb strings.Builder
	if err := RunE10(&sb, env, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "clients") {
		t.Error("E10 output incomplete")
	}
	sb.Reset()
	if err := RunE11(&sb, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sel(%)") {
		t.Error("E11 output incomplete")
	}
}

func TestE12Ablation(t *testing.T) {
	var sb strings.Builder
	if err := RunE12(&sb, fastConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "index nested loop") || !strings.Contains(out, "block nested loop") {
		t.Errorf("E12 output:\n%s", out)
	}
}

func TestE15ScaleOut(t *testing.T) {
	var sb strings.Builder
	if err := RunE15(&sb, fastConfig(), []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"shards", "MS1 op/s", "MS3 op/s", "MA2", "MA6", "MT1", "prune"} {
		if !strings.Contains(out, want) {
			t.Errorf("E15 output missing %q:\n%s", want, out)
		}
	}
}
