package sql

import (
	"encoding/hex"
	"fmt"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// registerExtras adds the extended function surface: WKB interchange,
// collection accessors, geometry simplification and affine helpers.
// These are part of every profile (they are format/accessor functions,
// not topology, so even the reduced profiles provide them).
func (r *Registry) registerExtras() {
	r.funcs["ST_ASBINARY"] = wrapN(1, "ST_ASBINARY", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_ASBINARY")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewText(hex.EncodeToString(geom.MarshalWKB(g))), nil
	})

	r.funcs["ST_GEOMFROMWKB"] = wrapN(1, "ST_GEOMFROMWKB", func(args []storage.Value) (storage.Value, error) {
		s, ok, err := argText(args, 0, "ST_GEOMFROMWKB")
		if err != nil {
			return storage.Null(), err
		}
		if !ok {
			return storage.Null(), nil
		}
		raw, err := hex.DecodeString(s)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: ST_GEOMFROMWKB: bad hex: %w", err)
		}
		g, err := geom.UnmarshalWKB(raw)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: ST_GEOMFROMWKB: %w", err)
		}
		return storage.NewGeom(g), nil
	})

	r.funcs["ST_NUMGEOMETRIES"] = wrapN(1, "ST_NUMGEOMETRIES", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_NUMGEOMETRIES")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		return storage.NewInt(int64(numGeometries(g))), nil
	})

	r.funcs["ST_GEOMETRYN"] = wrapN(2, "ST_GEOMETRYN", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_GEOMETRYN")
		if err != nil {
			return storage.Null(), err
		}
		n, ok, err := argFloat(args, 1, "ST_GEOMETRYN")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil || !ok {
			return storage.Null(), nil
		}
		sub, found := geometryN(g, int(n))
		if !found {
			return storage.Null(), nil
		}
		return storage.NewGeom(sub), nil
	})

	r.funcs["ST_SIMPLIFY"] = wrapN(2, "ST_SIMPLIFY", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_SIMPLIFY")
		if err != nil {
			return storage.Null(), err
		}
		tol, ok, err := argFloat(args, 1, "ST_SIMPLIFY")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil || !ok {
			return storage.Null(), nil
		}
		return storage.NewGeom(geom.Simplify(g, tol)), nil
	})

	r.funcs["ST_TRANSLATE"] = wrapN(3, "ST_TRANSLATE", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_TRANSLATE")
		if err != nil {
			return storage.Null(), err
		}
		dx, okX, err := argFloat(args, 1, "ST_TRANSLATE")
		if err != nil {
			return storage.Null(), err
		}
		dy, okY, err := argFloat(args, 2, "ST_TRANSLATE")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil || !okX || !okY {
			return storage.Null(), nil
		}
		return storage.NewGeom(translate(g, dx, dy)), nil
	})

	r.funcs["ST_ASGEOJSON"] = wrapN(1, "ST_ASGEOJSON", func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, "ST_ASGEOJSON")
		if err != nil {
			return storage.Null(), err
		}
		if g == nil {
			return storage.Null(), nil
		}
		out, err := geom.MarshalGeoJSON(g)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: ST_ASGEOJSON: %w", err)
		}
		return storage.NewText(string(out)), nil
	})

	r.funcs["ST_GEOMFROMGEOJSON"] = wrapN(1, "ST_GEOMFROMGEOJSON", func(args []storage.Value) (storage.Value, error) {
		s, ok, err := argText(args, 0, "ST_GEOMFROMGEOJSON")
		if err != nil {
			return storage.Null(), err
		}
		if !ok {
			return storage.Null(), nil
		}
		g, err := geom.UnmarshalGeoJSON([]byte(s))
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: ST_GEOMFROMGEOJSON: %w", err)
		}
		return storage.NewGeom(g), nil
	})

	r.funcs["ST_XMIN"] = wrapN(1, "ST_XMIN", envOrdinate("ST_XMIN", func(rc geom.Rect) float64 { return rc.MinX }))
	r.funcs["ST_YMIN"] = wrapN(1, "ST_YMIN", envOrdinate("ST_YMIN", func(rc geom.Rect) float64 { return rc.MinY }))
	r.funcs["ST_XMAX"] = wrapN(1, "ST_XMAX", envOrdinate("ST_XMAX", func(rc geom.Rect) float64 { return rc.MaxX }))
	r.funcs["ST_YMAX"] = wrapN(1, "ST_YMAX", envOrdinate("ST_YMAX", func(rc geom.Rect) float64 { return rc.MaxY }))
}

func envOrdinate(name string, f func(geom.Rect) float64) FuncImpl {
	return func(args []storage.Value) (storage.Value, error) {
		g, err := argGeom(args, 0, name)
		if err != nil {
			return storage.Null(), err
		}
		if g == nil || g.IsEmpty() {
			return storage.Null(), nil
		}
		return storage.NewFloat(f(g.Envelope())), nil
	}
}

// numGeometries counts top-level parts (1 for primitive geometries).
func numGeometries(g geom.Geometry) int {
	switch t := g.(type) {
	case geom.MultiPoint:
		return len(t)
	case geom.MultiLineString:
		return len(t)
	case geom.MultiPolygon:
		return len(t)
	case geom.Collection:
		return len(t)
	default:
		return 1
	}
}

// geometryN returns the 1-based nth part.
func geometryN(g geom.Geometry, n int) (geom.Geometry, bool) {
	idx := n - 1
	pick := func(l int) bool { return idx >= 0 && idx < l }
	switch t := g.(type) {
	case geom.MultiPoint:
		if pick(len(t)) {
			return t[idx], true
		}
	case geom.MultiLineString:
		if pick(len(t)) {
			return t[idx], true
		}
	case geom.MultiPolygon:
		if pick(len(t)) {
			return t[idx], true
		}
	case geom.Collection:
		if pick(len(t)) {
			return t[idx], true
		}
	default:
		if n == 1 {
			return g, true
		}
	}
	return nil, false
}

// translate shifts every coordinate of g by (dx, dy).
func translate(g geom.Geometry, dx, dy float64) geom.Geometry {
	out := g.Clone()
	shift := func(cs []geom.Coord) {
		for i := range cs {
			cs[i].X += dx
			cs[i].Y += dy
		}
	}
	var walk func(geom.Geometry) geom.Geometry
	walk = func(g geom.Geometry) geom.Geometry {
		switch t := g.(type) {
		case geom.Point:
			if t.Empty {
				return t
			}
			t.X += dx
			t.Y += dy
			return t
		case geom.MultiPoint:
			for i := range t {
				t[i] = walk(t[i]).(geom.Point)
			}
			return t
		case geom.LineString:
			shift(t)
			return t
		case geom.MultiLineString:
			for _, l := range t {
				shift(l)
			}
			return t
		case geom.Polygon:
			for _, r := range t {
				shift(r)
			}
			return t
		case geom.MultiPolygon:
			for _, p := range t {
				for _, r := range p {
					shift(r)
				}
			}
			return t
		case geom.Collection:
			for i := range t {
				t[i] = walk(t[i])
			}
			return t
		}
		return g
	}
	return walk(out)
}
