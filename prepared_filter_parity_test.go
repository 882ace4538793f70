package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/storage"
)

// TestPreparedFilterParity is the rail for the one filter evaluator:
// the batch cascade, a join stage's per-probe prepared filter and
// PBSM's in-probe refine decide every prepared predicate through the
// same code. Over tables holding NULL, empty and valid geometries beside
// a TEXT column, every statement runs with the prepared topology kernel
// on and off, at parallelism 1 and 8, with joins forced to index nested
// loops and to PBSM, and must return the same rows, or the same error
// text for a TEXT operand, on every path; the brute-force oracle
// (refexec) must admit those rows or raise that error. A statement must
// also advance PrepHits by the same amount at parallelism 8 as at 1,
// and never with the prepared kernel off.
func TestPreparedFilterParity(t *testing.T) {
	load := func(eng *Engine) {
		// pf and pfi hold the same 300 rows, enough for a parallel
		// stage 0; pfi has a spatial index. pfs holds the first 60.
		var sb strings.Builder
		for i := 0; i < 300; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			var g string
			switch i % 7 {
			case 0:
				g = "NULL"
			case 1:
				g = "ST_GeomFromText('POLYGON EMPTY')"
			case 2:
				g = fmt.Sprintf("ST_MakePoint(%d, %d)", i%20*3, i/20*3)
			default:
				x, y := i%20*3, i/20*3
				g = fmt.Sprintf("ST_MakeEnvelope(%d, %d, %d, %d)", x, y, x+3, y+2+i%3)
			}
			text := fmt.Sprintf("'tag %d'", i)
			if i%11 == 0 {
				text = "NULL"
			}
			fmt.Fprintf(&sb, "(%d, %s, %s)", i, g, text)
		}
		for _, tbl := range []string{"pf", "pfi", "pfs"} {
			eng.MustExec(fmt.Sprintf("CREATE TABLE %s (id INTEGER, g GEOMETRY, t TEXT)", tbl))
			eng.MustExec(fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, sb.String()))
		}
		eng.MustExec("DELETE FROM pfs WHERE id >= 60")
		eng.MustExec("CREATE SPATIAL INDEX pfi_g ON pfi (g)")
		eng.MustExec("CREATE SPATIAL INDEX pfs_g ON pfs (g)")
	}
	const w = "ST_MakeEnvelope(5, 5, 40, 30)"
	var stmts []string
	for _, tbl := range []string{"pf", "pfi"} {
		for _, f := range []string{
			"ST_Intersects(g, " + w + ")",
			"ST_Intersects(" + w + ", g)",
			"ST_Within(g, " + w + ")",
			"id > 10 AND ST_Contains(" + w + ", g)",
			"ST_Relate(g, " + w + ", 'T********')",
			"ST_Relate(" + w + ", g, 'T*F**F***')",
			"NOT ST_Disjoint(g, " + w + ")",
			"ST_Touches(g, " + w + ") OR id = 3",
			"ST_Intersects(t, " + w + ")",
			"ST_Intersects(" + w + ", t)",
			"ST_Relate(" + w + ", t, 'T********')",
			// A TEXT window operand: the index window (pfi) and the MBR
			// prefilter (pf) raise the predicate's own error.
			"ST_Intersects(g, 'POINT(10 10)')",
		} {
			stmts = append(stmts, fmt.Sprintf("SELECT id FROM %s WHERE %s", tbl, f))
		}
		stmts = append(stmts, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE ST_Overlaps(g, %s)", tbl, w))
	}
	stmts = append(stmts,
		// PBSM refines with the outer geometry prepared (inner side
		// larger), and with both sides prepared (inner side smaller).
		"SELECT a.id, b.id FROM pfs a JOIN pfi b ON ST_Intersects(a.g, b.g) ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM pfi a JOIN pfs b ON ST_Touches(b.g, a.g) ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM pf a JOIN pfs b ON ST_Within(b.g, a.g) WHERE a.id < 200 ORDER BY a.id, b.id",
		// Per-probe prepared filters over an index-less rescan.
		"SELECT a.id, b.id FROM pfs a JOIN pf b ON ST_Relate(a.g, b.g, 'T********') WHERE a.id < 30 ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM pfs a JOIN pf b ON ST_Covers(b.g, a.g) ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM pfs a JOIN pf b ON ST_Relate(b.g, a.t, 'T********') ORDER BY a.id, b.id",
		// A TEXT outer operand as the probe window: per-probe MBR
		// prefilter (pf) and index nested loop (pfi).
		"SELECT a.id, b.id FROM pfs a JOIN pf b ON ST_Intersects(b.g, a.t) ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM pfs a JOIN pfi b ON ST_Intersects(b.g, a.t) ORDER BY a.id, b.id",
	)

	type arm struct {
		prep bool
		eng  *Engine
	}
	var arms []arm
	for _, prep := range []bool{false, true} {
		eng := OpenEngine(GaiaDB(), WithTopoPrep(prep))
		load(eng)
		arms = append(arms, arm{prep, eng})
	}

	want := make(map[string]string)
	var errs, prepared int
	for _, strat := range []JoinStrategy{JoinINL, JoinPBSM} {
		// serialHits holds each statement's PrepHits delta at parallelism 1
		// with the kernel on.
		serialHits := make(map[string]uint64)
		for _, par := range []int{1, 8} {
			for _, q := range stmts {
				for _, a := range arms {
					a.eng.SetParallelism(par)
					a.eng.SetJoinStrategy(strat)
					before := a.eng.CacheCounters().PrepHits
					res, err := a.eng.Exec(q)
					h := a.eng.CacheCounters().PrepHits - before
					got := execResult(res, err)
					cfg := fmt.Sprintf("prep=%v parallelism=%d join=%s", a.prep, par, strat)
					if w, ok := want[q]; !ok {
						want[q] = got
						if strings.HasPrefix(got, "error: ") {
							errs++
						}
						var rows [][]storage.Value
						if res != nil {
							rows = res.Rows
						}
						if d := oracleDiff(a.eng, q, rows, err); d != "" {
							t.Errorf("%s: %s: %s", cfg, q, d)
						}
					} else if got != w {
						t.Errorf("%s: %s\ngot:\n%s\nwant:\n%s", cfg, q, got, w)
					}
					switch {
					case !a.prep && h != 0:
						t.Errorf("%s: %s: %d prepared evaluations with the kernel off", cfg, q, h)
					case !a.prep:
					case par == 1:
						serialHits[q] = h
						if h > 0 {
							prepared++
						}
					case h != serialHits[q]:
						t.Errorf("%s: %s: PrepHits advanced by %d, by %d at parallelism 1", cfg, q, h, serialHits[q])
					}
				}
			}
		}
	}
	if errs != 11 {
		t.Errorf("%d statements fail, want the 11 with a TEXT operand", errs)
	}
	if prepared == 0 {
		t.Error("no statement evaluated a prepared predicate")
	}
	for _, a := range arms {
		requireNoPins(t, a.eng)
	}
}
