package sql_test

import (
	"fmt"
	"math/rand"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/tiger"
)

// engineExecer runs the tiger loader's statements on an engine.
type engineExecer struct{ e *engine.Engine }

func (x engineExecer) Exec(q string) error {
	_, err := x.e.Exec(q)
	return err
}

// TestFilteredKNNWork counts the heap rows MS6's hospital statement
// fetches on tiger medium. Past the category filter, which matches 623
// of 3 456 landmarks, the kNN source browses about k·N/M candidates
// instead of seeking and ranking every hospital; the same shape under a
// unique key keeps its one-row seek. EXPLAIN names the path that runs.
// The kNN source fetches without decoding geo: the fetch tests the
// category comparison on the stored tuple, and only survivors decode
// their geometry for the ORDER BY key.
func TestFilteredKNNWork(t *testing.T) {
	ds := tiger.Generate(tiger.Medium, 1)
	e := engine.Open(engine.GaiaDB())
	if err := tiger.Load(engineExecer{e}, ds, true); err != nil {
		t.Fatal(err)
	}
	e.MustExec("CREATE INDEX pointlm_id ON pointlm (id)")
	var n accessCounts
	run := sql.NewRunner(countingCatalog{e, &n}, sql.NewRegistry(sql.RegistryOptions{}))
	tbl, _ := e.Table("pointlm")
	geo := sql.ColumnIndexByName(tbl.Columns(), "geo")
	rnd := rand.New(rand.NewSource(1))
	ext := ds.Extent
	var most int64
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("ST_MakePoint(%g, %g)",
			ext.MinX+rnd.Float64()*(ext.MaxX-ext.MinX), ext.MinY+rnd.Float64()*(ext.MaxY-ext.MinY))
		id := ds.PointLandmarks[rnd.Intn(len(ds.PointLandmarks))].ID
		for _, c := range []struct {
			where, access  string
			rows, maxFetch int64
		}{
			{"category = 'hospital'", "pointlm:knn", 3, 64},
			{fmt.Sprintf("id = %d", id), "pointlm:btree-seek", 1, 1},
		} {
			q := fmt.Sprintf("SELECT name FROM pointlm WHERE %s ORDER BY ST_Distance(geo, %s) LIMIT 3", c.where, p)
			before := n.fetched.Load()
			n.fetches = nil
			res, err := run.Run(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			fetched := n.fetched.Load() - before
			most = max(most, fetched)
			if res.Access[0] != c.access || int64(len(res.Rows)) != c.rows || fetched > c.maxFetch {
				t.Errorf("%s: plan %s, %d rows, %d fetches; want %s, %d rows, at most %d fetches",
					q, res.Access[0], len(res.Rows), fetched, c.access, c.rows, c.maxFetch)
			}
			for _, proj := range n.fetches {
				if c.access == "pointlm:knn" && (proj.Need == nil || proj.Need[geo] || len(proj.Compares) == 0) {
					t.Errorf("%s: the kNN source fetches with Need %v and %d comparisons; want geo undecoded and the category tested",
						q, proj.Need, len(proj.Compares))
				}
			}
			if plan, err := run.Run("EXPLAIN " + q); err != nil || "pointlm:"+plan.Rows[0][1].Text != c.access {
				t.Errorf("EXPLAIN %s: %v, %v; want %s", q, plan, err, c.access)
			}
		}
	}
	t.Logf("at most %d heap fetches per statement", most)
}
