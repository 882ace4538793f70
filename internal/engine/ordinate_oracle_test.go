package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"jackpine/internal/sql"
)

// ordinateBounds are the k of the oracle's ordinate comparisons: inside
// the data, on lattice and extent values, beyond the extent, ±1e300 and
// ±Inf (overflowed products; SQL has no infinite literal), and the
// bounds no window holds (ordinateNoWindow).
var ordinateBounds = append([]string{
	"37.5", "40", "0", "100", "-25", "150", "1e300", "-1e300",
	"1e300 * 1e300", "-1e300 * 1e300",
}, ordinateNoWindow...)

// ordinateNoWindow are the bounds no window holds: NULL, NaN and TEXT.
// The planner declines the window, so their comparisons plan seqscan.
var ordinateNoWindow = []string{"NULL", "(1e300 * 1e300) - (1e300 * 1e300)", "'x'"}

// ordinateQuery is one WHERE clause of ordinate comparisons in the form
// the planner turns into an index window, its scan form, which adds 0
// to every ordinate and so never matches, and the window form's plan
// over the indexed table.
type ordinateQuery struct{ Window, Scan, Plan string }

// ordinateColumn matches the columns an ordinate query reads.
var ordinateColumn = regexp.MustCompile(`\b(g|id)\b`)

// ordinateJoin returns an ordinate query's WHERE clause, in its window
// or scan form, on table b as the inner stage of a nested loop under
// three outer rows.
func ordinateJoin(where string) string {
	return "SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.id < 3 AND " + ordinateColumn.ReplaceAllString(where, "b.$1")
}

// ordinateQueries builds every single comparison — four ordinates, four
// operators, both operand orders, every bound — then conjunctions over
// random lattice bounds forming a box, a box with one NULL bound,
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
	plan := func(k string) string {
		if slices.Contains(ordinateNoWindow, k) {
			return "seqscan"
		}
		return "spatial-index"
	}
	funcs := []string{"ST_XMIN", "ST_YMIN", "ST_XMAX", "ST_YMAX"}
	mirror := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	for _, f := range funcs {
		for _, op := range []string{"<", "<=", ">", ">="} {
			for _, k := range ordinateBounds {
				addPlan(plan(k), "", [3]string{f, op, k})
				// k op f(g), written with the mirrored operator so the
				// scan form keeps the operand order: k op' f(g) + 0.
				qs = append(qs, ordinateQuery{
					fmt.Sprintf("%s %s %s(g)", k, mirror[op], f),
					fmt.Sprintf("%s %s %s(g) + 0", k, mirror[op], f),
					plan(k),
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
	addPlan("seqscan", "", [3]string{"ST_XMAX", ">", "20"}, [3]string{"ST_YMAX", "<", "NULL"})
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
// over the same table unindexed; then again as the inner stage of a
// nested loop. It requires the same rows and error, the plan the rule
// predicts — the window form probes the spatial index when there is one,
// every bound is a number and no B-tree path outranks it; the scan form
// never probes it — and executed access labels equal to EXPLAIN's; the
// brute-force oracle (refexec) must admit every result and fail with
// the same error text.
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
			check := func(window, scan, plan string) {
				stage := strings.Count(window, " JOIN ") // the table the comparisons read
				got := e.MustExec("EXPLAIN " + window).Rows[stage][1].String()
				scanPlan := e.MustExec("EXPLAIN " + scan).Rows[stage][1].String()
				if !strings.Contains(got, plan) || strings.Contains(scanPlan, "spatial-index") || strings.Contains(scanPlan, "inl") {
					if badPlan++; badPlan <= 5 {
						t.Errorf("%s indexed=%v: %s plans %s, want %s; scan form plans %s",
							prof.Name, indexed, window, got, plan, scanPlan)
					}
				}
				res, err := e.Exec(window)
				want, wantErr := e.Exec(scan)
				d := accessMismatch(e, window, res)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
					!slices.Equal(sortedRows(res), sortedRows(want)) {
					d = fmt.Sprintf("%d rows (error %v), scan form %d (error %v)",
						len(sortedRows(res)), err, len(sortedRows(want)), wantErr)
				}
				if d == "" {
					d = oracleDisagreement(e, window, res, err)
				}
				if d != "" {
					if bad++; bad <= 5 {
						t.Errorf("%s indexed=%v: %s: %s", prof.Name, indexed, window, d)
					}
				}
			}
			for _, q := range qs {
				plan, inner := "seqscan", "seqscan"
				if indexed {
					plan, inner = q.Plan, q.Plan
					if q.Plan == "spatial-index" {
						inner = "inl(index=g)"
					}
				}
				check("SELECT id FROM t WHERE "+q.Window, "SELECT id FROM t WHERE "+q.Scan, plan)
				check(ordinateJoin(q.Window), ordinateJoin(q.Scan), inner)
			}
			if bad+badPlan > 0 {
				t.Errorf("%s indexed=%v: of %d ordinate queries, each alone and as an inner stage, %d disagree with the scan form or their labels and %d plan otherwise than predicted",
					prof.Name, indexed, len(qs), bad, badPlan)
			}
		}
	}
}

// sortedRows renders a result's rows, sorted.
func sortedRows(res *sql.Result) []string {
	if res == nil {
		return nil
	}
	var rows []string
	for _, r := range resultRows(res) {
		rows = append(rows, strings.Join(r, " "))
	}
	slices.Sort(rows)
	return rows
}
