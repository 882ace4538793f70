package sql

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"jackpine/internal/geom"
	"jackpine/internal/overlay"
	"jackpine/internal/storage"
	"jackpine/internal/topo"
)

// FuncImpl is a scalar function implementation.
type FuncImpl func(args []storage.Value) (storage.Value, error)

// RegistryOptions configure the function registry for an engine profile.
type RegistryOptions struct {
	// MBRPredicates makes every topological predicate evaluate on
	// minimum bounding rectangles only (the MySQL-5.x emulation).
	MBRPredicates bool
	// Disabled lists function names (canonical upper case) the profile
	// does not support; calling them is a bind-time error.
	Disabled []string
}

// Registry maps function names to implementations.
type Registry struct {
	funcs map[string]FuncImpl
	mbr   bool

	// Prepared-geometry counters: hits are exact topological
	// evaluations routed through a prepared constant side, misses are
	// exact evaluations that re-decomposed both operands. MBR-profile
	// evaluations count as neither (nothing to prepare).
	prepHits   atomic.Int64
	prepMisses atomic.Int64
}

// PreparedCounters returns the cumulative prepared-path hit/miss
// counters for topological predicate evaluation.
func (r *Registry) PreparedCounters() (hits, misses int64) {
	return r.prepHits.Load(), r.prepMisses.Load()
}

// ResetPreparedCounters zeroes the prepared-path counters.
func (r *Registry) ResetPreparedCounters() {
	r.prepHits.Store(0)
	r.prepMisses.Store(0)
}

// Has reports whether the named function exists.
func (r *Registry) Has(name string) bool {
	_, ok := r.funcs[name]
	return ok
}

// MBRPredicates reports whether the registry evaluates topological
// predicates on MBRs.
func (r *Registry) MBRPredicates() bool { return r.mbr }

// Names returns the sorted list of registered function names.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Register installs (or replaces) the scalar function under its
// canonical upper-case name. Not safe to call concurrently with queries.
func (r *Registry) Register(name string, fn FuncImpl) { r.funcs[strings.ToUpper(name)] = fn }

// Call invokes the named function.
func (r *Registry) Call(name string, args []storage.Value) (storage.Value, error) {
	fn, ok := r.funcs[name]
	if !ok {
		return storage.Null(), fmt.Errorf("sql: function %s is not supported by this engine", name)
	}
	return fn(args)
}

// NewRegistry builds a registry with the complete builtin function set,
// adjusted by the options.
func NewRegistry(opts RegistryOptions) *Registry {
	r := &Registry{funcs: make(map[string]FuncImpl), mbr: opts.MBRPredicates}
	r.registerScalars()
	r.registerSpatial(opts.MBRPredicates)
	r.registerExtras()
	for _, name := range opts.Disabled {
		delete(r.funcs, strings.ToUpper(name))
	}
	return r
}

// --- argument helpers ---------------------------------------------------

func argGeom(args []storage.Value, i int, fn string) (geom.Geometry, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("sql: %s: missing argument %d", fn, i+1)
	}
	return geomArg(args[i], i, fn)
}

// geomArg checks v as argument i of fn: nil for NULL, an error unless
// it is a GEOMETRY.
func geomArg(v storage.Value, i int, fn string) (geom.Geometry, error) {
	if v.IsNull() {
		return nil, nil
	}
	if v.Type != storage.TypeGeom {
		return nil, fmt.Errorf("sql: %s: argument %d is %s, want GEOMETRY", fn, i+1, v.Type)
	}
	return v.Geom, nil
}

func argFloat(args []storage.Value, i int, fn string) (float64, bool, error) {
	if i >= len(args) {
		return 0, false, fmt.Errorf("sql: %s: missing argument %d", fn, i+1)
	}
	if args[i].IsNull() {
		return 0, false, nil
	}
	f, ok := args[i].AsFloat()
	if !ok {
		return 0, false, fmt.Errorf("sql: %s: argument %d is %s, want numeric", fn, i+1, args[i].Type)
	}
	return f, true, nil
}

func argText(args []storage.Value, i int, fn string) (string, bool, error) {
	if i >= len(args) {
		return "", false, fmt.Errorf("sql: %s: missing argument %d", fn, i+1)
	}
	if args[i].IsNull() {
		return "", false, nil
	}
	if args[i].Type != storage.TypeText {
		return "", false, fmt.Errorf("sql: %s: argument %d is %s, want TEXT", fn, i+1, args[i].Type)
	}
	return args[i].Text, true, nil
}

func arity(n int, fn string) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		return storage.Null(), fmt.Errorf("sql: %s expects %d argument(s), got %d", fn, n, len(args))
	}
}

// wrapN enforces the argument count before delegating.
func wrapN(n int, fn string, impl FuncImpl) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		if len(args) != n {
			return arity(n, fn)(args)
		}
		return impl(args)
	}
}

// --- scalar builtins ----------------------------------------------------

func (r *Registry) registerScalars() {
	r.funcs["ABS"] = wrapN(1, "ABS", func(args []storage.Value) (storage.Value, error) {
		switch args[0].Type {
		case storage.TypeNull:
			return storage.Null(), nil
		case storage.TypeInt:
			v := args[0].Int
			if v < 0 {
				v = -v
			}
			return storage.NewInt(v), nil
		case storage.TypeFloat:
			return storage.NewFloat(math.Abs(args[0].Float)), nil
		}
		return storage.Null(), fmt.Errorf("sql: ABS of %s", args[0].Type)
	})
	r.funcs["FLOOR"] = wrapN(1, "FLOOR", numericUnary(math.Floor))
	r.funcs["CEIL"] = wrapN(1, "CEIL", numericUnary(math.Ceil))
	r.funcs["SQRT"] = wrapN(1, "SQRT", numericUnary(math.Sqrt))
	r.funcs["LOWER"] = wrapN(1, "LOWER", textUnary(strings.ToLower))
	r.funcs["UPPER"] = wrapN(1, "UPPER", textUnary(strings.ToUpper))
	r.funcs["LENGTH"] = wrapN(1, "LENGTH", func(args []storage.Value) (storage.Value, error) {
		if args[0].IsNull() {
			return storage.Null(), nil
		}
		if args[0].Type != storage.TypeText {
			return storage.Null(), fmt.Errorf("sql: LENGTH of %s", args[0].Type)
		}
		return storage.NewInt(int64(len(args[0].Text))), nil
	})
	r.funcs["COALESCE"] = func(args []storage.Value) (storage.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return storage.Null(), nil
	}
}

func numericUnary(f func(float64) float64) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		if args[0].IsNull() {
			return storage.Null(), nil
		}
		v, ok := args[0].AsFloat()
		if !ok {
			return storage.Null(), fmt.Errorf("sql: numeric function over %s", args[0].Type)
		}
		return storage.NewFloat(f(v)), nil
	}
}

func textUnary(f func(string) string) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		if args[0].IsNull() {
			return storage.Null(), nil
		}
		if args[0].Type != storage.TypeText {
			return storage.Null(), fmt.Errorf("sql: text function over %s", args[0].Type)
		}
		return storage.NewText(f(args[0].Text)), nil
	}
}

// --- spatial builtins ----------------------------------------------------

// topoPredicates maps ST_* names to named predicates.
var topoPredicates = map[string]topo.Predicate{
	"ST_EQUALS":     topo.PredEquals,
	"ST_DISJOINT":   topo.PredDisjoint,
	"ST_INTERSECTS": topo.PredIntersects,
	"ST_TOUCHES":    topo.PredTouches,
	"ST_CROSSES":    topo.PredCrosses,
	"ST_WITHIN":     topo.PredWithin,
	"ST_CONTAINS":   topo.PredContains,
	"ST_OVERLAPS":   topo.PredOverlaps,
	"ST_COVERS":     topo.PredCovers,
	"ST_COVEREDBY":  topo.PredCoveredBy,
}

func (r *Registry) registerSpatial(mbr bool) {
	for name, pred := range topoPredicates {
		pred := pred
		r.funcs[name] = wrapN(2, name, func(args []storage.Value) (storage.Value, error) {
			a, err := argGeom(args, 0, "predicate")
			if err != nil {
				return storage.Null(), err
			}
			b, err := argGeom(args, 1, "predicate")
			if err != nil {
				return storage.Null(), err
			}
			if a == nil || b == nil {
				return storage.Null(), nil
			}
			if mbr {
				return storage.NewBool(topo.MBREval(pred, a, b)), nil
			}
			r.prepMisses.Add(1)
			return storage.NewBool(pred.Eval(a, b)), nil
		})
	}

	r.funcs["ST_RELATE"] = wrapN(3, "ST_RELATE", func(args []storage.Value) (storage.Value, error) {
		a, err := argGeom(args, 0, "ST_RELATE")
		if err != nil {
			return storage.Null(), err
		}
		b, err := argGeom(args, 1, "ST_RELATE")
		if err != nil {
			return storage.Null(), err
		}
		pat, ok, err := argText(args, 2, "ST_RELATE")
		if err != nil {
			return storage.Null(), err
		}
		if a == nil || b == nil || !ok {
			return storage.Null(), nil
		}
		if !topo.ValidPattern(pat) {
			return storage.Null(), fmt.Errorf("sql: ST_RELATE: bad DE-9IM pattern %q", pat)
		}
		r.prepMisses.Add(1)
		return storage.NewBool(topo.RelatePattern(a, b, pat)), nil
	})

	r.funcs["ST_DWITHIN"] = wrapN(3, "ST_DWITHIN", func(args []storage.Value) (storage.Value, error) {
		a, err := argGeom(args, 0, "ST_DWITHIN")
		if err != nil {
			return storage.Null(), err
		}
		b, err := argGeom(args, 1, "ST_DWITHIN")
		if err != nil {
			return storage.Null(), err
		}
		d, ok, err := argFloat(args, 2, "ST_DWITHIN")
		if err != nil {
			return storage.Null(), err
		}
		if a == nil || b == nil || !ok {
			return storage.Null(), nil
		}
		if mbr {
			return storage.NewBool(a.Envelope().Distance(b.Envelope()) <= d), nil
		}
		return storage.NewBool(geom.DWithin(a, b, d)), nil
	})

	r.funcs["ST_DISTANCE"] = wrapN(2, "ST_DISTANCE", func(args []storage.Value) (storage.Value, error) {
		a, err := argGeom(args, 0, "ST_DISTANCE")
		if err != nil {
			return storage.Null(), err
		}
		b, err := argGeom(args, 1, "ST_DISTANCE")
		if err != nil {
			return storage.Null(), err
		}
		if a == nil || b == nil {
			return storage.Null(), nil
		}
		return storage.NewFloat(geom.Distance(a, b)), nil
	})

	geomUnaryFloat := func(name string, f func(geom.Geometry) float64) {
		r.funcs[name] = wrapN(1, name, func(args []storage.Value) (storage.Value, error) {
			g, err := argGeom(args, 0, name)
			if err != nil {
				return storage.Null(), err
			}
			if g == nil {
				return storage.Null(), nil
			}
			return storage.NewFloat(f(g)), nil
		})
	}
	geomUnaryFloat("ST_AREA", geom.Area)
	geomUnaryFloat("ST_LENGTH", geom.Length)
	geomUnaryFloat("ST_PERIMETER", func(g geom.Geometry) float64 {
		if g.Dimension() != 2 {
			return 0
		}
		return geom.Length(g)
	})

	geomUnaryGeom := func(name string, f func(geom.Geometry) geom.Geometry) {
		r.funcs[name] = wrapN(1, name, func(args []storage.Value) (storage.Value, error) {
			g, err := argGeom(args, 0, name)
			if err != nil {
				return storage.Null(), err
			}
			if g == nil {
				return storage.Null(), nil
			}
			return storage.NewGeom(f(g)), nil
		})
	}
	geomUnaryGeom("ST_ENVELOPE", func(g geom.Geometry) geom.Geometry {
		return g.Envelope().ToPolygon()
	})
	geomUnaryGeom("ST_CONVEXHULL", overlay.ConvexHull)
	geomUnaryGeom("ST_BOUNDARY", geom.Boundary)
	geomUnaryGeom("ST_CENTROID", func(g geom.Geometry) geom.Geometry {
		c, ok := geom.Centroid(g)
		if !ok {
			return geom.Point{Empty: true}
		}
		return geom.Point{Coord: c}
	})
	geomUnaryGeom("ST_POINTONSURFACE", func(g geom.Geometry) geom.Geometry {
		c, ok := geom.InteriorPoint(g)
		if !ok {
			return geom.Point{Empty: true}
		}
		return geom.Point{Coord: c}
	})

	geomBinaryGeom := func(name string, f func(a, b geom.Geometry) geom.Geometry) {
		r.funcs[name] = wrapN(2, name, func(args []storage.Value) (storage.Value, error) {
			a, err := argGeom(args, 0, name)
			if err != nil {
				return storage.Null(), err
			}
			b, err := argGeom(args, 1, name)
			if err != nil {
				return storage.Null(), err
			}
			if a == nil || b == nil {
				return storage.Null(), nil
			}
			return storage.NewGeom(f(a, b)), nil
		})
	}
	geomBinaryGeom("ST_UNION", overlay.Union)
	geomBinaryGeom("ST_INTERSECTION", overlay.Intersection)
	geomBinaryGeom("ST_DIFFERENCE", overlay.Difference)
	geomBinaryGeom("ST_SYMDIFFERENCE", overlay.SymDifference)

	r.funcs["ST_BUFFER"] = func(args []storage.Value) (storage.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return storage.Null(), fmt.Errorf("sql: ST_BUFFER expects 2 or 3 arguments, got %d", len(args))
		}
		g, err := argGeom(args, 0, "ST_BUFFER")
		if err != nil {
			return storage.Null(), err
		}
		d, ok, err := argFloat(args, 1, "ST_BUFFER")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil || !ok {
			return storage.Null(), nil
		}
		quadSegs := 0
		if len(args) == 3 {
			q, qok, err := argFloat(args, 2, "ST_BUFFER")
			if err != nil {
				return storage.Null(), err
			}
			if qok {
				quadSegs = int(q)
			}
		}
		return storage.NewGeom(overlay.Buffer(g, d, quadSegs)), nil
	}

	r.funcs["ST_GEOMFROMTEXT"] = wrapN(1, "ST_GEOMFROMTEXT", func(args []storage.Value) (storage.Value, error) {
		s, ok, err := argText(args, 0, "ST_GEOMFROMTEXT")
		if err != nil {
			return storage.Null(), err
		}
		if !ok {
			return storage.Null(), nil
		}
		g, err := geom.ParseWKT(s)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: ST_GEOMFROMTEXT: %w", err)
		}
		return storage.NewGeom(g), nil
	})

	r.funcs["ST_ASTEXT"] = wrapN(1, "ST_ASTEXT", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_ASTEXT")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewText(geom.WKT(g)), nil
	})

	r.funcs["ST_MAKEPOINT"] = wrapN(2, "ST_MAKEPOINT", func(args []storage.Value) (storage.Value, error) {
		x, okX, err := argFloat(args, 0, "ST_MAKEPOINT")
		if err != nil {
			return storage.Null(), err
		}
		y, okY, err := argFloat(args, 1, "ST_MAKEPOINT")
		if err != nil {
			return storage.Null(), err
		}
		if !okX || !okY {
			return storage.Null(), nil
		}
		return storage.NewGeom(geom.Pt(x, y)), nil
	})

	r.funcs["ST_MAKEENVELOPE"] = wrapN(4, "ST_MAKEENVELOPE", func(args []storage.Value) (storage.Value, error) {
		var coords [4]float64
		for i := range coords {
			v, ok, err := argFloat(args, i, "ST_MAKEENVELOPE")
			if err != nil {
				return storage.Null(), err
			}
			if !ok {
				return storage.Null(), nil
			}
			coords[i] = v
		}
		rect := geom.Rect{MinX: coords[0], MinY: coords[1], MaxX: coords[2], MaxY: coords[3]}
		return storage.NewGeom(rect.ToPolygon()), nil
	})

	r.funcs["ST_X"] = wrapN(1, "ST_X", pointOrdinate(func(p geom.Point) float64 { return p.X }))
	r.funcs["ST_Y"] = wrapN(1, "ST_Y", pointOrdinate(func(p geom.Point) float64 { return p.Y }))

	r.funcs["ST_DIMENSION"] = wrapN(1, "ST_DIMENSION", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_DIMENSION")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewInt(int64(g.Dimension())), nil
	})
	r.funcs["ST_NUMPOINTS"] = wrapN(1, "ST_NUMPOINTS", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_NUMPOINTS")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewInt(int64(g.NumCoords())), nil
	})
	r.funcs["ST_ISEMPTY"] = wrapN(1, "ST_ISEMPTY", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_ISEMPTY")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewBool(g.IsEmpty()), nil
	})
	r.funcs["ST_ISVALID"] = wrapN(1, "ST_ISVALID", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_ISVALID")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewBool(geom.IsValid(g)), nil
	})
	r.funcs["ST_GEOMETRYTYPE"] = wrapN(1, "ST_GEOMETRYTYPE", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_GEOMETRYTYPE")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewText(g.GeomType().String()), nil
	})
}

func pointOrdinate(f func(geom.Point) float64) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_X/ST_Y")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		p, ok := g.(geom.Point)
		if !ok || p.Empty {
			return storage.Null(), fmt.Errorf("sql: ST_X/ST_Y requires a non-empty POINT")
		}
		return storage.NewFloat(f(p)), nil
	}
}
