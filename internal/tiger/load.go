package tiger

import (
	"fmt"
	"strconv"
	"strings"

	"jackpine/internal/geom"
)

// Execer runs one SQL statement; both local engines and remote driver
// connections satisfy it.
type Execer interface {
	Exec(query string) error
}

// Schema returns the DDL for the TIGER-like tables.
func Schema() []string {
	return []string{
		"CREATE TABLE edges (id INTEGER, name TEXT, class TEXT, fromaddr INTEGER, toaddr INTEGER, geo GEOMETRY)",
		"CREATE TABLE areawater (id INTEGER, name TEXT, category TEXT, geo GEOMETRY)",
		"CREATE TABLE arealm (id INTEGER, name TEXT, category TEXT, geo GEOMETRY)",
		"CREATE TABLE pointlm (id INTEGER, name TEXT, category TEXT, geo GEOMETRY)",
		"CREATE TABLE parcels (id INTEGER, owner TEXT, landuse TEXT, geo GEOMETRY)",
	}
}

// IndexDDL returns the index statements: spatial indexes on every layer
// plus the attribute indexes the geocoding workload relies on.
func IndexDDL() []string {
	return []string{
		"CREATE SPATIAL INDEX edges_geo ON edges (geo)",
		"CREATE SPATIAL INDEX areawater_geo ON areawater (geo)",
		"CREATE SPATIAL INDEX arealm_geo ON arealm (geo)",
		"CREATE SPATIAL INDEX pointlm_geo ON pointlm (geo)",
		"CREATE SPATIAL INDEX parcels_geo ON parcels (geo)",
		// Composite: geocoding probes name = ? AND fromaddr <= ?, so the
		// index range stops at the house number instead of fanning out
		// over every segment of every street with that name.
		"CREATE INDEX edges_addr ON edges (name, fromaddr)",
		"CREATE INDEX parcels_landuse ON parcels (landuse)",
		"CREATE INDEX pointlm_category ON pointlm (category)",
	}
}

// insertBatch is the number of rows per INSERT statement during loading.
const insertBatch = 200

// Load creates the schema, bulk-inserts the dataset through SQL, and
// builds the indexes. Set withIndexes false to leave all tables unindexed
// (the index-effect experiment loads that way and indexes selectively).
func Load(db Execer, ds *Dataset, withIndexes bool) error {
	return load(db, ds, withIndexes, "", Schema(), nil)
}

// load is the body of Load and LoadShard: it runs the schema DDL,
// inserts every feature keep accepts (all of them when keep is nil) in
// batches of insertBatch rows per table, in the order edges, areawater,
// arealm, parcels, pointlm, and builds the indexes. With keep set, each
// row carries its feature's position in its table's dataset order as a
// trailing _seq value. what prefixes the DDL error messages.
func load(db Execer, ds *Dataset, withIndexes bool, what string, schema []string,
	keep func(geom.Geometry) bool) error {

	for _, ddl := range schema {
		if err := db.Exec(ddl); err != nil {
			return fmt.Errorf("tiger: %sschema: %w", what, err)
		}
	}
	quote := func(s string) string { return strings.ReplaceAll(s, "'", "''") }
	// A layer's cols formats feature i's columns before its geometry.
	type layer struct {
		table string
		n     int
		shape func(i int) geom.Geometry
		cols  func(i int) string
	}
	named := func(id int64, name, category string) string {
		return fmt.Sprintf("%d, '%s', '%s', ", id, quote(name), quote(category))
	}
	areas := func(table string, rows []Area) layer {
		return layer{table, len(rows), func(i int) geom.Geometry { return rows[i].Geom },
			func(i int) string { return named(rows[i].ID, rows[i].Name, rows[i].Category) }}
	}
	pts := ds.PointLandmarks
	for _, l := range []layer{
		{"edges", len(ds.Edges), func(i int) geom.Geometry { return ds.Edges[i].Geom }, func(i int) string {
			e := ds.Edges[i]
			return fmt.Sprintf("%d, '%s', '%s', %d, %d, ", e.ID, quote(e.Name), e.Class, e.FromAddr, e.ToAddr)
		}},
		areas("areawater", ds.AreaWater),
		areas("arealm", ds.AreaLandmarks),
		areas("parcels", ds.Parcels),
		{"pointlm", len(pts), func(i int) geom.Geometry { return pts[i].Geom },
			func(i int) string { return named(pts[i].ID, pts[i].Name, pts[i].Category) }},
	} {
		var batch []string
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := db.Exec("INSERT INTO " + l.table + " VALUES " + strings.Join(batch, ", "))
			batch = batch[:0]
			return err
		}
		for i := 0; i < l.n; i++ {
			g := l.shape(i)
			if keep != nil && !keep(g) {
				continue
			}
			row := "(" + l.cols(i) + "ST_GeomFromText('" + geom.WKT(g) + "')"
			if keep != nil {
				row += ", " + strconv.Itoa(i)
			}
			if batch = append(batch, row+")"); len(batch) >= insertBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}

	if withIndexes {
		for _, ddl := range IndexDDL() {
			if err := db.Exec(ddl); err != nil {
				return fmt.Errorf("tiger: %sindex: %w", what, err)
			}
		}
	}
	return nil
}

// LayerStats summarizes one table of a dataset.
type LayerStats struct {
	Layer    string
	Features int
	Coords   int
	WKBBytes int
}

// Stats computes the dataset-statistics rows (experiment E1's table).
func (ds *Dataset) Stats() []LayerStats {
	var out []LayerStats
	addAreas := func(name string, rows []Area) {
		s := LayerStats{Layer: name, Features: len(rows)}
		for _, a := range rows {
			s.Coords += a.Geom.NumCoords()
			s.WKBBytes += len(geom.MarshalWKB(a.Geom))
		}
		out = append(out, s)
	}
	edgeStats := LayerStats{Layer: "edges", Features: len(ds.Edges)}
	for _, e := range ds.Edges {
		edgeStats.Coords += e.Geom.NumCoords()
		edgeStats.WKBBytes += len(geom.MarshalWKB(e.Geom))
	}
	out = append(out, edgeStats)
	addAreas("areawater", ds.AreaWater)
	addAreas("arealm", ds.AreaLandmarks)
	ptStats := LayerStats{Layer: "pointlm", Features: len(ds.PointLandmarks)}
	for _, p := range ds.PointLandmarks {
		ptStats.Coords += p.Geom.NumCoords()
		ptStats.WKBBytes += len(geom.MarshalWKB(p.Geom))
	}
	out = append(out, ptStats)
	addAreas("parcels", ds.Parcels)
	return out
}

// Validate checks every generated geometry, returning the first error.
func (ds *Dataset) Validate() error {
	for _, e := range ds.Edges {
		if err := geom.Validate(e.Geom); err != nil {
			return fmt.Errorf("edge %d: %w", e.ID, err)
		}
	}
	check := func(kind string, rows []Area) error {
		for _, a := range rows {
			if err := geom.Validate(a.Geom); err != nil {
				return fmt.Errorf("%s %d: %w", kind, a.ID, err)
			}
		}
		return nil
	}
	if err := check("water", ds.AreaWater); err != nil {
		return err
	}
	if err := check("landmark", ds.AreaLandmarks); err != nil {
		return err
	}
	if err := check("parcel", ds.Parcels); err != nil {
		return err
	}
	for _, p := range ds.PointLandmarks {
		if err := geom.Validate(p.Geom); err != nil {
			return fmt.Errorf("point %d: %w", p.ID, err)
		}
	}
	return nil
}

// TotalFeatures returns the feature count across all layers.
func (ds *Dataset) TotalFeatures() int {
	return len(ds.Edges) + len(ds.AreaWater) + len(ds.AreaLandmarks) +
		len(ds.PointLandmarks) + len(ds.Parcels)
}
