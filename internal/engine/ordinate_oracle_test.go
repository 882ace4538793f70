package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ordinateBounds are the k of the oracle's ordinate comparisons: inside
// the data, on lattice and extent values, beyond the extent, ±1e300 and
// ±Inf (overflowed products; SQL has no infinite literal), and the
// bounds no window holds: NULL, NaN and TEXT.
var ordinateBounds = []string{
	"37.5", "40", "0", "100", "-25", "150", "1e300", "-1e300",
	"1e300 * 1e300", "-1e300 * 1e300",
	"NULL", "(1e300 * 1e300) - (1e300 * 1e300)", "'x'",
}

// ordinateQuery is one WHERE clause of ordinate comparisons in the form
// the planner turns into an index window, its scan form, which adds 0
// to every ordinate and so never matches, and the window form's plan
// over the indexed table.
type ordinateQuery struct{ Window, Scan, Plan string }

// ordinateQueries builds every single comparison — four ordinates, four
// operators, both operand orders, every bound — then conjunctions over
// random lattice bounds forming a box, a box with one non-number bound,
// an interval no window side can be (MAX above 60, MIN below 40: the
// envelope spans the gap), empty intersections, and comparisons beside
// an id filter, whose B-tree seek or range outranks the window.
func ordinateQueries(seed int64) []ordinateQuery {
	var qs []ordinateQuery
	addPlan := func(plan, filter string, terms ...[3]string) {
		w, s := []string{filter}, []string{filter}
		for _, t := range terms {
			f, op, k := t[0]+"(g)", t[1], t[2]
			w = append(w, fmt.Sprintf("%s %s %s", f, op, k))
			s = append(s, fmt.Sprintf("%s + 0 %s %s", f, op, k))
		}
		if filter == "" {
			w, s = w[1:], s[1:]
		}
		qs = append(qs, ordinateQuery{strings.Join(w, " AND "), strings.Join(s, " AND "), plan})
	}
	add := func(terms ...[3]string) { addPlan("spatial-index", "", terms...) }
	funcs := []string{"ST_XMIN", "ST_YMIN", "ST_XMAX", "ST_YMAX"}
	mirror := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	for _, f := range funcs {
		for _, op := range []string{"<", "<=", ">", ">="} {
			for _, k := range ordinateBounds {
				add([3]string{f, op, k})
				// k op f(g), written with the mirrored operator so the
				// scan form keeps the operand order: k op' f(g) + 0.
				qs = append(qs, ordinateQuery{
					fmt.Sprintf("%s %s %s(g)", k, mirror[op], f),
					fmt.Sprintf("%s %s %s(g) + 0", k, mirror[op], f),
					"spatial-index",
				})
			}
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	c := func() string { return fmt.Sprint(rnd.Intn(140) - 20) }
	for i := 0; i < 24; i++ {
		add([3]string{"ST_XMAX", ">=", c()}, [3]string{"ST_XMIN", "<=", c()},
			[3]string{"ST_YMAX", ">", c()}, [3]string{"ST_YMIN", "<", c()})
		add([3]string{"ST_XMIN", ">", c()}, [3]string{"ST_XMAX", "<", c()},
			[3]string{"ST_YMIN", ">=", c()}, [3]string{"ST_YMAX", "<=", c()})
	}
	add([3]string{"ST_XMAX", ">", "20"}, [3]string{"ST_YMAX", "<", "NULL"})
	add([3]string{"ST_XMAX", ">", "60"}, [3]string{"ST_XMIN", "<", "40"})
	add([3]string{"ST_XMIN", ">", "60"}, [3]string{"ST_XMAX", "<", "40"})
	add([3]string{"ST_YMAX", ">", "60"}, [3]string{"ST_YMAX", "<", "40"})
	add([3]string{"ST_XMAX", ">", "1e300 * 1e300"}, [3]string{"ST_XMIN", "<", "-1e300 * 1e300"})
	addPlan("btree-seek", "id = 17", [3]string{"ST_XMAX", ">", "0"})
	addPlan("btree-range", "id BETWEEN 10 AND 200", [3]string{"ST_YMIN", "<", "50"})
	return qs
}

// TestOrdinateWindowMatchesScan runs every ordinate query against its
// scan form on both index kinds, over a table holding NULL and empty
// geometries whose second half is inserted after the spatial index (so
// it lands partly outside the grid's extent, in its overflow list), and
// over the same table unindexed. It requires the same row multiset and
// error, and the plan the rule predicts: the window form probes the
// spatial index when there is one and no B-tree path outranks it, the
// scan form never probes it.
func TestOrdinateWindowMatchesScan(t *testing.T) {
	const n = 300 // above parallelMinRows: two workers split the window
	qs := ordinateQueries(5)
	for _, prof := range []Profile{GaiaDB(), CommerceDB()} {
		for _, indexed := range []bool{true, false} {
			e := Open(prof, WithParallelism(2))
			e.MustExec("CREATE TABLE t (id INTEGER, name TEXT, g GEOMETRY)")
			for i, s := range knnOracleRows(11, n, true) {
				if i == n/2 && indexed {
					e.MustExec("CREATE SPATIAL INDEX t_g ON t (g)")
					e.MustExec("CREATE INDEX t_id ON t (id)")
				}
				e.MustExec(s)
			}
			bad, badPlan := 0, 0
			for _, q := range qs {
				plan := "seqscan"
				if indexed {
					plan = q.Plan
				}
				window := e.MustExec("EXPLAIN SELECT id FROM t WHERE " + q.Window).Rows[0][1].String()
				scan := e.MustExec("EXPLAIN SELECT id FROM t WHERE " + q.Scan).Rows[0][1].String()
				if !strings.Contains(window, plan) || strings.Contains(scan, "spatial-index") {
					if badPlan++; badPlan <= 5 {
						t.Errorf("%s indexed=%v: %s plans %s, want %s; scan form plans %s",
							prof.Name, indexed, q.Window, window, plan, scan)
					}
				}
				rows, err := ordinateIDs(e, q.Window)
				want, wantErr := ordinateIDs(e, q.Scan)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
					!slices.Equal(rows, want) {
					if bad++; bad <= 5 {
						t.Errorf("%s indexed=%v: %s: %d rows (error %v), scan form %d (error %v)",
							prof.Name, indexed, q.Window, len(rows), err, len(want), wantErr)
					}
				}
			}
			if bad+badPlan > 0 {
				t.Errorf("%s indexed=%v: of %d ordinate queries, %d disagree with the scan form and %d plan otherwise than predicted",
					prof.Name, indexed, len(qs), bad, badPlan)
			}
		}
	}
}

// ordinateIDs returns the sorted ids a WHERE clause keeps.
func ordinateIDs(e *Engine, where string) ([]int64, error) {
	res, err := e.Exec("SELECT id FROM t WHERE " + where)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].Int
	}
	slices.Sort(ids)
	return ids, nil
}
