package sql

import (
	"fmt"
	"math"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// pbsmRows is one side of a PBSM join state's rows, decoded once per
// build and projected to the columns the plan needs, stored column by
// column: a NULL flag per row and one payload array of the column's
// type. A stored value costs its payload and a byte rather than a
// 56-byte storage.Value: held as full-width []storage.Value rows, the
// outer rows that every `ingest` proxjoin rebuilds raised that
// workload's peak RSS from 34 to 46 MB. n is the row count.
type pbsmRows struct {
	n    int
	cols []pbsmCol
}

// pbsmCol stores table column col, of type typ. words holds INTEGER and
// BOOLEAN values and DOUBLE bits, texts TEXT values, geoms GEOMETRY
// values; only the array of typ is used.
type pbsmCol struct {
	col   int
	typ   storage.ValueType
	null  []bool
	words []int64
	texts []string
	geoms []geom.Geometry
}

// newPBSMRows sizes the rows for n rows of tbl projected to need (nil
// means all columns).
func newPBSMRows(tbl Table, need []bool, n int) pbsmRows {
	var rs pbsmRows
	for c, col := range tbl.Columns() {
		if need != nil && !need[c] {
			continue
		}
		pc := pbsmCol{col: c, typ: col.Type, null: make([]bool, 0, n)}
		switch col.Type {
		case storage.TypeText:
			pc.texts = make([]string, 0, n)
		case storage.TypeGeom:
			pc.geoms = make([]geom.Geometry, 0, n)
		default:
			pc.words = make([]int64, 0, n)
		}
		rs.cols = append(rs.cols, pc)
	}
	return rs
}

// add appends the projected columns of a full-width row. Every stored
// value is NULL or of its column's type (coerce enforces it on every
// write); any other is an error.
func (rs *pbsmRows) add(row []storage.Value) error {
	for k := range rs.cols {
		c := &rs.cols[k]
		v := row[c.col]
		if v.Type != c.typ && v.Type != storage.TypeNull {
			return fmt.Errorf("sql: PBSM join: a %s value in %s column %d", v.Type, c.typ, c.col)
		}
		c.null = append(c.null, v.Type == storage.TypeNull)
		switch c.typ {
		case storage.TypeText:
			c.texts = append(c.texts, v.Text)
		case storage.TypeGeom:
			c.geoms = append(c.geoms, v.Geom)
		case storage.TypeFloat:
			c.words = append(c.words, int64(math.Float64bits(v.Float)))
		default:
			c.words = append(c.words, v.Int)
		}
	}
	rs.n++
	return nil
}

// append appends the rows of src, stored over the same columns.
func (rs *pbsmRows) append(src *pbsmRows) {
	for k := range rs.cols {
		c, sc := &rs.cols[k], &src.cols[k]
		c.null = append(c.null, sc.null...)
		c.words = append(c.words, sc.words...)
		c.texts = append(c.texts, sc.texts...)
		c.geoms = append(c.geoms, sc.geoms...)
	}
	rs.n += src.n
}

// copyTo writes row i's projected columns into the full-width tuple
// dst, leaving its other columns as they are.
func (rs *pbsmRows) copyTo(dst []storage.Value, i int) {
	for k := range rs.cols {
		c := &rs.cols[k]
		v := storage.Value{Type: c.typ}
		switch {
		case c.null[i]:
			v.Type = storage.TypeNull
		case c.typ == storage.TypeText:
			v.Text = c.texts[i]
		case c.typ == storage.TypeGeom:
			v.Geom = c.geoms[i]
		case c.typ == storage.TypeFloat:
			v.Float = math.Float64frombits(uint64(c.words[i]))
		default:
			v.Int = c.words[i]
		}
		dst[c.col] = v
	}
}

// column returns the stored column of table column col, nil when it is
// not projected.
func (rs *pbsmRows) column(col int) *pbsmCol {
	for k := range rs.cols {
		if rs.cols[k].col == col {
			return &rs.cols[k]
		}
	}
	return nil
}
