package sql_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/cluster"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/tiger"
)

// recorder is a connector whose sessions note every statement they send.
type recorder struct {
	driver.Connector
	mu    *sync.Mutex
	texts *[]string
}

func (r recorder) Connect() (driver.Conn, error) {
	c, err := r.Connector.Connect()
	return recConn{c, r}, err
}

func (r recorder) note(q string) {
	r.mu.Lock()
	*r.texts = append(*r.texts, q)
	r.mu.Unlock()
}

type recConn struct {
	driver.Conn
	r recorder
}

func (c recConn) Query(q string) (*driver.ResultSet, error) {
	c.r.note(q)
	return c.Conn.Query(q)
}

func (c recConn) Exec(q string) (int, error) {
	c.r.note(q)
	return c.Conn.Exec(q)
}

type execer struct{ e *engine.Engine }

func (x execer) Exec(q string) error {
	_, err := x.e.Exec(q)
	return err
}

// TestShapeCacheMacroRail runs every operation class of the benchmark's
// workloads (the seven macro scenarios, and the landinfo, proxjoin,
// insert, update and delete statements) against one engine and against
// a 2-shard cluster, recording the client's statements and the texts the
// router sends its shards. Through one cache, every recorded statement
// must parse exactly as Parse parses it, and each SELECT shape must be
// parsed once.
func TestShapeCacheMacroRail(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 1)
	qc := core.NewQueryContext(ds)
	var mu sync.Mutex
	var texts []string
	rec := func(c driver.Connector) driver.Connector { return recorder{c, &mu, &texts} }

	eng := engine.Open(engine.GaiaDB())
	if err := tiger.Load(execer{eng}, ds, true); err != nil {
		t.Fatal(err)
	}
	part, err := cluster.NewPartitioner(ds.Extent, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]driver.Connector, 2)
	for i := range shards {
		se := engine.Open(engine.GaiaDB())
		if err := tiger.LoadShard(execer{se}, ds, true, i, part.Assign); err != nil {
			t.Fatal(err)
		}
		shards[i] = rec(driver.NewInProc(se))
	}
	cl, err := cluster.Open(shards, part, cluster.Options{Profile: engine.GaiaDB()})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range tiger.Schema() {
		if err := cl.Register(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	texts = texts[:0] // the statistics refresh is not a workload statement

	for _, target := range []driver.Connector{driver.NewInProc(eng), cl} {
		conn, err := rec(target).Connect()
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 2; iter++ {
			for _, sc := range core.MacroSuite() {
				if _, err := sc.Run(qc, conn, iter); err != nil {
					t.Fatalf("%s on %s: %v", sc.ID, target.Name(), err)
				}
			}
			id := 10_000_000 + iter
			p := qc.Point("ingest", iter)
			for _, q := range []string{
				fmt.Sprintf("SELECT b.id, b.owner, b.landuse FROM parcels a JOIN parcels b ON ST_Touches(b.geo, a.geo) "+
					"WHERE a.id = %d", qc.RandomParcelID("MS5", iter)),
				fmt.Sprintf("SELECT COUNT(*), SUM(ST_Area(geo)) FROM parcels "+
					"WHERE ST_Intersects(geo, ST_Buffer(%s, 30))", core.GeomWKT(qc.RandomEdge("MS5/road", iter).Geom)),
				"SELECT COUNT(*), MAX(p.id) FROM pointlm p JOIN areawater w ON ST_DWithin(p.geo, w.geo, 100.0)",
				fmt.Sprintf("UPDATE parcels SET landuse = 'public' WHERE id = %d", qc.RandomParcelID("MS5", iter)),
				fmt.Sprintf("INSERT INTO pointlm VALUES (%d, 'bench %d', 'school', ST_GeomFromText('POINT(%g %g)'))", id, id, p.X, p.Y),
				fmt.Sprintf("DELETE FROM pointlm WHERE id = %d", id),
			} {
				if _, err := conn.Query(q); err != nil {
					t.Fatalf("%s on %s: %v", q, target.Name(), err)
				}
			}
		}
		conn.Close()
	}

	var c sql.ShapeCache
	shapes := map[string]bool{}
	selects := 0
	for _, q := range texts {
		got, gerr := c.Parse(q)
		want, werr := sql.Parse(q)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the shape cache parsed %v, %v; Parse %v, %v", q, got, gerr, want, werr)
		}
		if key, ok := sql.ShapeKey(q); ok {
			selects++
			shapes[key] = true
		}
	}
	builds := sql.ShapeBuilds(&c)
	t.Logf("%d statements, %d SELECTs of %d shapes: %d templates built, hit rate %.3f",
		len(texts), selects, len(shapes), builds, 1-float64(builds)/float64(selects))
	if builds != len(shapes) {
		t.Fatalf("%d templates built for %d shapes", builds, len(shapes))
	}
	if !strings.Contains(fmt.Sprint(texts), "_seq") {
		t.Fatal("no router-rendered shard statement was recorded")
	}
}
