package cluster

import (
	"context"
	"math"

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
// ineligible (a projection the partials cannot express, no spatial
// conjunct linking the partitioning geometry columns, replicated or
// duplicate-named bindings) and the gather path should run instead.
func (cn *Conn) joinPushdown(ctx context.Context, b *boundSelect) (*res, bool, error) {
	t, refs := b.sel, b.refs
	if cn.shards() < 2 || len(refs) != 2 || refs[0].Name() == refs[1].Name() ||
		!b.infos[0].partitioned() || !b.infos[1].partitioned() ||
		len(t.GroupBy) > 0 || len(t.OrderBy) > 0 || t.Limit >= 0 || t.Offset > 0 {
		return nil, false, nil
	}
	items, ok := sql.PartialItems(b.exprs)
	if !ok {
		return nil, false, nil
	}
	d, ok := b.joinDistance(cn.c.reg)
	if !ok {
		return nil, false, nil
	}

	// Phase 1: same-shard pairs via a partial-aggregate scatter of the
	// original join. Not prune-eligible: the join itself is the filter.
	shardSel := sql.CloneStatement(t).(*sql.Select)
	shardSel.Exprs = items
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
	comp, err := cn.buildComplement(ctx, b.infos, d)
	if err != nil {
		return nil, true, err
	}
	compSel := sql.CloneStatement(shardSel).(*sql.Select)
	neq := &sql.BinaryExpr{Op: "<>",
		Left:  &sql.ColumnRef{Table: refs[0].Name(), Column: ShardColumn},
		Right: &sql.ColumnRef{Table: refs[1].Name(), Column: ShardColumn},
	}
	compSel.Where = andAll([]sql.Expr{t.Where, neq})
	compRes, err := comp.Exec(renderSelect(compSel))
	if err != nil {
		return nil, true, err
	}

	pseudo := cn.shards()
	byShard[pseudo] = compRes.Rows
	row, err := cn.c.mergePartials(b.exprs, byShard, append(targets, pseudo))
	if err != nil {
		return nil, true, err
	}
	cn.c.countJoinPushdown()
	return &res{cols: sql.OutputNames(t, b.scope), rows: [][]storage.Value{row}}, true, nil
}

// joinDistance is the tightest envelope-distance bound a conjunct the
// planner's PBSM matcher accepts (sql.PBSMJoin) places between the two
// bindings' partitioning columns. ok is false when no conjunct links
// them: cross-shard pairs are then unbounded and the pushdown unsound.
func (b *boundSelect) joinDistance(reg *sql.Registry) (d float64, ok bool) {
	lo, hi := b.span(1)
	for _, c := range b.bconds {
		outer, inner, dc, match := sql.PBSMJoin(b.scope, []sql.Expr{c}, lo, hi, reg)
		if match && outer == b.infos[0].geomCol && inner == lo+b.infos[1].geomCol &&
			dc >= 0 && (!ok || dc < d) {
			d, ok = dc, true
		}
	}
	return d, ok
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
