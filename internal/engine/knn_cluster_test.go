package engine_test

import (
	"testing"

	"jackpine/internal/cluster"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
)

// TestKNNMatchesSortCluster runs TestKNNMatchesSort's kNN queries through
// 2- and 4-shard in-proc clusters, over the same tables, and compares
// each with the sort form on one engine: same rows, distances and errors.
func TestKNNMatchesSortCluster(t *testing.T) {
	qs := engine.KNNOracleQueries(engine.KNNOracleProbes(7))
	for _, n := range []int{2, 4} {
		for _, v := range engine.KNNOracleVariants {
			single := engine.Open(engine.GaiaDB())
			shards := make([]driver.Connector, n)
			for i := range shards {
				shards[i] = driver.NewInProc(engine.Open(engine.GaiaDB()))
			}
			part, err := cluster.NewPartitioner(geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, n)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.Open(shards, part, cluster.Options{Profile: engine.GaiaDB()})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := cl.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			engine.KNNOracleTable(func(s string) {
				single.MustExec(s)
				if _, err := conn.Exec(s); err != nil {
					t.Fatalf("%s: %v", s, err)
				}
			}, 240, v.Dirty, v.Indexed)
			bad := 0
			for _, q := range qs {
				var rows, want [][]string
				rs, err := conn.Query(q.KNN)
				if err == nil {
					rows = engine.RenderRows(rs.Rows)
				}
				res, wantErr := single.Exec(q.Sorted)
				if wantErr == nil {
					want = engine.RenderRows(res.Rows)
				}
				if d := engine.KNNDisagreement(rows, err, want, wantErr); d != "" {
					if bad++; bad <= 5 {
						t.Errorf("%d shards %+v: %s: %s", n, v, q.KNN, d)
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d shards %+v: %d of %d kNN queries disagree with the sort form", n, v, bad, len(qs))
			}
		}
	}
}
