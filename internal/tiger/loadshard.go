package tiger

import "jackpine/internal/geom"

// seqColumn is the hidden global-insertion-sequence column partitioned
// tables carry on cluster shards. It must match cluster.SeqColumn (a
// cluster test cross-checks the two).
const seqColumn = "_seq"

// ShardSchema returns the shard-side DDL: the benchmark tables with the
// hidden _seq column appended.
func ShardSchema() []string {
	out := make([]string, len(Schema()))
	for i, ddl := range Schema() {
		out[i] = ddl[:len(ddl)-1] + ", " + seqColumn + " INTEGER)"
	}
	return out
}

// LoadShard creates the shard-side schema and bulk-loads the slice of
// the dataset that assign maps to the given shard. The _seq sequence
// advances for every feature of a table in dataset order — across all
// shards — so a set of shards preloaded independently with LoadShard is
// row-for-row identical to one loaded through the cluster router, and
// cluster.RefreshStats can recover each table's sequence high-water
// mark. Feature iteration order matches Load: edges, areawater, arealm,
// parcels, pointlm.
func LoadShard(db Execer, ds *Dataset, withIndexes bool, shard int, assign func(geom.Geometry) int) error {
	return load(db, ds, withIndexes, "shard ", ShardSchema(), func(g geom.Geometry) bool { return assign(g) == shard })
}
