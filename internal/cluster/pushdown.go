package cluster

import (
	"context"
	"math"
	"strings"

	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// ShardColumn is the hidden provenance column appended to every table
// in the join-pushdown complement engine: it records the shard a row
// was fetched from, so the complement query can demand a._shard <>
// b._shard and count only cross-shard pairs.
const ShardColumn = "_shard"

// joinPushdown answers a co-partitioned spatial aggregate join without
// materialising either table, replacing the gather fallback for this
// class. The decomposition splits joining pairs by co-location:
//
//   - same-shard pairs: every row lives on exactly one shard (disjoint
//     assignment by envelope centre), so scattering the original join
//     with partial-aggregate projections makes each shard count
//     exactly the pairs whose two rows it owns, with no overlap;
//   - cross-shard pairs: the join's spatial conjunct bounds every
//     joining pair's envelope distance by d (0 for ST_INTERSECTS and
//     friends, the constant for ST_DWITHIN), so a pair can straddle
//     shards only across an internal cell edge. A transient complement
//     engine loads, from each table, the spill rows — envelope within
//     d+ε of an internal edge of its own shard's cell — plus the band
//     partners — interior rows within reach of the other table's
//     spill on the other shards — and re-runs the join with a._shard
//     <> b._shard appended. buildComplement argues that every
//     cross-shard pair has both members loaded, each exactly once;
//     the shard conjunct excludes same-shard pairs already counted by
//     the scatter.
//
// The partial states merge in fixed order — real shards ascending,
// the complement as one trailing pseudo-shard — through the same
// exact carriers as the single-table aggregate path, so the result
// matches a single engine bit for bit. ok is false when the shape is
// ineligible (non-aggregate projection, no spatial conjunct linking
// the partitioning geometry columns, replicated or duplicate-named
// bindings) and the gather path should run instead.
func (cn *Conn) joinPushdown(ctx context.Context, t *sql.Select, refs []*sql.TableRef) (*res, bool, error) {
	if cn.shards() < 2 || len(refs) != 2 || refs[0].Name() == refs[1].Name() {
		return nil, false, nil
	}
	infoA, infoB := cn.c.lookup(refs[0].Table), cn.c.lookup(refs[1].Table)
	if !infoA.partitioned() || !infoB.partitioned() {
		return nil, false, nil
	}
	if len(t.GroupBy) > 0 || len(t.OrderBy) > 0 || t.Limit >= 0 || t.Offset > 0 {
		return nil, false, nil
	}
	var aggs []*sql.FuncCall
	for _, se := range t.Exprs {
		if se.Star || !collectAggs(se.Expr, false, &aggs) {
			return nil, false, nil
		}
	}
	var conjuncts []sql.Expr
	conjuncts = append(conjuncts, sql.Conjuncts(t.Where)...)
	for i := range t.Joins {
		conjuncts = append(conjuncts, sql.Conjuncts(t.Joins[i].On)...)
	}
	d, ok := cn.pushdownDistance(conjuncts,
		refs[0].Name(), infoA.cols[infoA.geomCol].Name,
		refs[1].Name(), infoB.cols[infoB.geomCol].Name)
	if !ok {
		return nil, false, nil
	}
	scope := sql.NewScope()
	scope.AddTable(refs[0].Name(), infoA.cols)
	scope.AddTable(refs[1].Name(), infoB.cols)
	exprs, err := cn.c.bindExprs(t.Exprs, scope)
	if err != nil {
		return nil, true, err
	}

	// Phase 1: same-shard pairs via a partial-aggregate scatter of the
	// original join. Not prune-eligible: the join itself is the filter.
	shardSel := sql.CloneStatement(t).(*sql.Select)
	shardSel.Exprs = partialItems(aggs)
	shardSel.Limit = -1
	targets := make([]int, cn.shards())
	for i := range targets {
		targets[i] = i
	}
	cn.c.countScatter(len(targets), 0, false)
	sr := cn.startScatter(ctx, sameStmt(renderSelect(shardSel), targets))
	byShard, err := collectByShard(sr)
	if err != nil {
		return nil, true, err
	}

	// Phase 2: cross-shard pairs via the boundary complement.
	comp, err := cn.buildComplement(ctx, []*tableInfo{infoA, infoB}, d)
	if err != nil {
		return nil, true, err
	}
	compSel := sql.CloneStatement(t).(*sql.Select)
	compSel.Exprs = partialItems(aggs)
	compSel.Limit = -1
	neq := &sql.BinaryExpr{Op: "<>",
		Left:  &sql.ColumnRef{Table: refs[0].Name(), Column: ShardColumn},
		Right: &sql.ColumnRef{Table: refs[1].Name(), Column: ShardColumn},
	}
	if compSel.Where != nil {
		compSel.Where = &sql.BinaryExpr{Op: "AND", Left: compSel.Where, Right: neq}
	} else {
		compSel.Where = neq
	}
	compRes, err := comp.Exec(renderSelect(compSel))
	if err != nil {
		return nil, true, err
	}

	pseudo := cn.shards()
	byShard[pseudo] = compRes.Rows
	row, err := cn.c.mergePartials(exprs, byShard, append(targets, pseudo))
	if err != nil {
		return nil, true, err
	}
	cn.c.countJoinPushdown()
	return &res{cols: sql.OutputNames(t, scope), rows: [][]storage.Value{row}}, true, nil
}

// partialItems builds the shard-side projection for a partial-aggregate
// scatter: SUM/AVG rewritten to the exact __PARTIAL_SUM carrier, the
// decomposable rest (COUNT, MIN, MAX, ST_EXTENT) verbatim.
func partialItems(aggs []*sql.FuncCall) []sql.SelectExpr {
	items := make([]sql.SelectExpr, len(aggs))
	for i, a := range aggs {
		switch a.Name {
		case "SUM", "AVG":
			items[i] = sql.SelectExpr{Expr: &sql.FuncCall{
				Name: sql.PartialSumName,
				Args: []sql.Expr{a.Args[0]},
			}}
		default:
			items[i] = sql.SelectExpr{Expr: a}
		}
	}
	return items
}

// spatialJoinBound parses a conjunct of the shape pred(x, y), with pred
// a sargable spatial predicate, or ST_DWITHIN(x, y, d): it returns the
// two geometry arguments and the envelope-distance bound every true
// result obeys — 0 for a sargable predicate (true results have
// intersecting envelopes), the constant d for ST_DWITHIN (a point
// within d of a geometry lies in its envelope grown by d per axis). ok
// is false for any other shape, and for a distance that references a
// column or is not a finite non-negative number.
func (cn *Conn) spatialJoinBound(c sql.Expr) (x, y sql.Expr, d float64, ok bool) {
	fc, isCall := c.(*sql.FuncCall)
	if !isCall {
		return nil, nil, 0, false
	}
	name := strings.ToUpper(fc.Name)
	switch {
	case sql.IsSargableSpatial(name) && len(fc.Args) == 2:
		return fc.Args[0], fc.Args[1], 0, true
	case name == "ST_DWITHIN" && len(fc.Args) == 3:
		if sql.HasColumnRef(fc.Args[2]) {
			return nil, nil, 0, false
		}
		v, err := cn.c.evalConst(fc.Args[2])
		if err != nil {
			return nil, nil, 0, false
		}
		f, isNum := v.AsFloat()
		if !isNum || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, nil, 0, false
		}
		return fc.Args[0], fc.Args[1], f, true
	}
	return nil, nil, 0, false
}

// pushdownDistance finds the tightest envelope-distance bound implied
// by the conjuncts linking the two bindings' partitioning geometry
// columns. ok is false when no conjunct links them — then cross-shard
// pairs are unbounded and the pushdown is unsound.
func (cn *Conn) pushdownDistance(conjuncts []sql.Expr, aName, aGeo, bName, bGeo string) (float64, bool) {
	best, found := 0.0, false
	for _, c := range conjuncts {
		x, y, d, ok := cn.spatialJoinBound(c)
		if !ok || !linksGeomCols(x, y, aName, aGeo, bName, bGeo) {
			continue
		}
		if !found || d < best {
			best, found = d, true
		}
	}
	return best, found
}

// linksGeomCols reports whether the two expressions are the two
// bindings' bare geometry columns, in either order.
func linksGeomCols(x, y sql.Expr, aName, aGeo, bName, bGeo string) bool {
	cx, okx := x.(*sql.ColumnRef)
	cy, oky := y.(*sql.ColumnRef)
	if !okx || !oky {
		return false
	}
	return (cx.Table == aName && cx.Column == aGeo && cy.Table == bName && cy.Column == bGeo) ||
		(cx.Table == bName && cx.Column == bGeo && cy.Table == aName && cy.Column == aGeo)
}

// buildComplement assembles the transient engine holding, for each
// distinct joined table, the rows that can form a cross-shard pair,
// tagged with their source shard. With m = d+ε (spillMargin):
//
//  1. Spill rows. cellIndex clamps each axis, so a border cell owns
//     everything beyond the extent on its side and only an edge shared
//     with another cell separates two shards. A row spills when its
//     envelope reaches within m of an internal edge of its own shard's
//     cell: one ordinate test per internal edge (ST_XMAX(geo) >
//     right-m, ST_XMIN(geo) < left+m, and likewise in y), OR-ed.
//     Outer edges do not move, so rows hugging the dataset's border
//     stay home.
//  2. Every cross-shard pair has a spill member. Shards s ≠ t differ
//     in a grid column or row; say s lies left of t. Then s has an
//     internal right edge R and t an internal left edge L ≥ R, and
//     non-spill rows a of s and b of t have a.MaxX ≤ R-m and b.MinX ≥
//     L+m: their envelopes are ≥ 2m > d apart along x, so they cannot
//     join. The argument reads envelope ordinates only — no exact
//     topology, and not where a row's centre lies.
//  3. Band partners. The other member of such a pair, if it does not
//     spill and lives on shard t, lies within d of a spill row of the
//     other table on a shard ≠ t, so it intersects band(t): the union
//     of that table's spill envelopes over the shards ≠ t, grown by m.
//     A self-join bands against its own table. Partners on the spill
//     row's own shard need no band: a._shard <> b._shard drops them.
//
// Two fetch rounds: spill rows first (their per-shard extents define
// the bands), then, on each shard t, the rows with NOT(spill test) AND
// ST_INTERSECTS(geo, band(t)). The filters are complementary, so no
// row loads twice, and every row carries its true shard, so the
// complement join counts each cross-shard pair exactly once. NULL and
// empty geometries have NULL ordinates and fail both filters; they
// cannot satisfy the spatial join conjunct.
func (cn *Conn) buildComplement(ctx context.Context, infos []*tableInfo, d float64) (*engine.Engine, error) {
	m := spillMargin(cn.c.part.Extent, d)
	tabs := infos[:1]
	if infos[1].name != infos[0].name {
		tabs = infos
	}

	load := make([][][]storage.Value, len(tabs))
	// spillExt[ti][s] is the envelope union of table ti's spill rows on
	// shard s.
	spillExt := make([][]geom.Rect, len(tabs))
	for ti, info := range tabs {
		geo := info.cols[info.geomCol].Name
		stmts := make(map[int]string, cn.shards())
		for s := 0; s < cn.shards(); s++ {
			if spill := cn.spillFilter(s, geo, m); spill != nil {
				sel := complementSelect(info)
				sel.Where = spill
				stmts[s] = renderSelect(sel)
			}
		}
		byShard, err := collectByShard(cn.startScatter(ctx, stmts))
		if err != nil {
			return nil, err
		}
		spillExt[ti] = make([]geom.Rect, cn.shards())
		for s := range spillExt[ti] {
			spillExt[ti][s] = geom.EmptyRect()
			for _, r := range byShard[s] {
				if g := r[info.geomCol]; g.Type == storage.TypeGeom && g.Geom != nil {
					spillExt[ti][s] = spillExt[ti][s].Union(g.Geom.Envelope())
				}
				load[ti] = append(load[ti], tagShard(r, s))
			}
		}
	}

	for ti, info := range tabs {
		other := spillExt[len(tabs)-1-ti]
		geo := info.cols[info.geomCol].Name
		stmts := make(map[int]string, cn.shards())
		for t := 0; t < cn.shards(); t++ {
			band := geom.EmptyRect()
			for s, e := range other {
				if s != t {
					band = band.Union(e)
				}
			}
			if band.IsEmpty() {
				continue
			}
			var where sql.Expr = &sql.FuncCall{Name: "ST_INTERSECTS", Args: []sql.Expr{
				&sql.ColumnRef{Column: geo},
				envelopeLiteral(band.Expand(m)),
			}}
			if spill := cn.spillFilter(t, geo, m); spill != nil {
				where = &sql.BinaryExpr{Op: "AND", Left: &sql.UnaryExpr{Op: "NOT", Expr: spill}, Right: where}
			}
			sel := complementSelect(info)
			sel.Where = where
			stmts[t] = renderSelect(sel)
		}
		byShard, err := collectByShard(cn.startScatter(ctx, stmts))
		if err != nil {
			return nil, err
		}
		for s := 0; s < cn.shards(); s++ {
			for _, r := range byShard[s] {
				load[ti] = append(load[ti], tagShard(r, s))
			}
		}
	}
	return cn.transientEngine(tabs, load, true)
}

// complementSelect projects a table's benchmark-visible columns (the
// shard-side star would drag the physical _seq along).
func complementSelect(info *tableInfo) *sql.Select {
	exprs := make([]sql.SelectExpr, len(info.cols))
	for i, c := range info.cols {
		exprs[i] = sql.SelectExpr{Expr: &sql.ColumnRef{Column: c.Name}}
	}
	return &sql.Select{Exprs: exprs, From: &sql.TableRef{Table: info.name}, Limit: -1}
}

// spillMargin returns m = d+ε, the reach of the spill test. ε absorbs
// float rounding in the edge and band arithmetic — fl(L+m) − fl(R−m)
// must stay above d however large the coordinates — so it scales with
// d and with the extent's coordinate magnitude. Any positive slack
// only grows the loaded set.
func spillMargin(extent geom.Rect, d float64) float64 {
	mag := math.Max(math.Max(math.Abs(extent.MinX), math.Abs(extent.MaxX)),
		math.Max(math.Abs(extent.MinY), math.Abs(extent.MaxY)))
	return d + (d+mag)*1e-9 + 1e-9
}

// spillFilter renders shard s's spill test: one envelope-ordinate
// comparison per internal edge of its cell, OR-ed; nil when the cell
// has no internal edge (a one-cell grid).
func (cn *Conn) spillFilter(s int, geo string, m float64) sql.Expr {
	p := cn.c.part
	cell, cx, cy := p.CellRect(s), s%p.Gx, s/p.Gx
	var tests []sql.Expr
	reaches := func(ordinate, op string, edge float64) {
		tests = append(tests, &sql.BinaryExpr{Op: op,
			Left:  &sql.FuncCall{Name: ordinate, Args: []sql.Expr{&sql.ColumnRef{Column: geo}}},
			Right: &sql.Literal{Value: storage.NewFloat(edge)},
		})
	}
	if cx > 0 {
		reaches("ST_XMIN", "<", cell.MinX+m)
	}
	if cx < p.Gx-1 {
		reaches("ST_XMAX", ">", cell.MaxX-m)
	}
	if cy > 0 {
		reaches("ST_YMIN", "<", cell.MinY+m)
	}
	if cy < p.Gy-1 {
		reaches("ST_YMAX", ">", cell.MaxY-m)
	}
	return orAll(tests)
}

// tagShard copies a fetched row with its source shard appended in the
// _shard position.
func tagShard(r []storage.Value, shard int) []storage.Value {
	out := make([]storage.Value, 0, len(r)+1)
	out = append(out, r...)
	return append(out, storage.NewInt(int64(shard)))
}
