package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

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
//     shards only near cell boundaries. A transient complement engine
//     loads, from each table, the spill rows — geometry not provably
//     inside its own shard's cell shrunk by d+ε — plus the band
//     partners — interior rows within reach of the other table's
//     spill extent — and re-runs the join with a._shard <> b._shard
//     appended. Any cross-shard pair has at least one spill member
//     (two rows deep inside different shrunk cells cannot be within d
//     of each other), and its partner is spill or band partner, so
//     every such pair is present exactly once; the shard conjunct
//     excludes same-shard pairs already counted by the scatter.
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
	sr := cn.startScatter(ctx, renderSelect(shardSel), targets)
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
		Left:  &sql.ColumnRef{Table: refs[0].Name(), Column: ShardColumn, Index: -1},
		Right: &sql.ColumnRef{Table: refs[1].Name(), Column: ShardColumn, Index: -1},
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
	merged, err := mergeAggStates(aggs, byShard, append(targets, pseudo))
	if err != nil {
		return nil, true, err
	}
	row := make([]storage.Value, len(t.Exprs))
	for i, se := range t.Exprs {
		v, err := sql.Eval(substituteAggs(se.Expr, merged), nil, cn.c.reg)
		if err != nil {
			return nil, true, err
		}
		row[i] = v
	}
	cn.c.countJoinPushdown()
	return &res{cols: selectNames(t.Exprs, infoA), rows: [][]storage.Value{row}}, true, nil
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
				Args: []sql.Expr{sql.CloneExpr(a.Args[0])},
			}}
		default:
			items[i] = sql.SelectExpr{Expr: sql.CloneExpr(a).(*sql.FuncCall)}
		}
	}
	return items
}

// pushdownDistance finds the tightest envelope-distance bound implied
// by the conjuncts linking the two bindings' partitioning geometry
// columns: 0 for any sargable predicate (true results have
// intersecting envelopes), the constant for ST_DWITHIN. ok is false
// when no conjunct links them — then cross-shard pairs are unbounded
// and the pushdown is unsound.
func (cn *Conn) pushdownDistance(conjuncts []sql.Expr, aName, aGeo, bName, bGeo string) (float64, bool) {
	best, found := 0.0, false
	for _, c := range conjuncts {
		fc, ok := c.(*sql.FuncCall)
		if !ok {
			continue
		}
		name := strings.ToUpper(fc.Name)
		isDWithin := name == "ST_DWITHIN"
		if !sql.IsSargableSpatial(name) && !isDWithin {
			continue
		}
		wantArgs := 2
		if isDWithin {
			wantArgs = 3
		}
		if len(fc.Args) != wantArgs {
			continue
		}
		if !linksGeomCols(fc.Args[0], fc.Args[1], aName, aGeo, bName, bGeo) {
			continue
		}
		d := 0.0
		if isDWithin {
			if sql.HasColumnRef(fc.Args[2]) {
				continue
			}
			v, err := sql.Eval(fc.Args[2], nil, cn.c.reg)
			if err != nil {
				continue
			}
			f, ok := v.AsFloat()
			if !ok || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				continue
			}
			d = f
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
// distinct joined table, its spill rows and band partners tagged with
// their source shard. Two fetch rounds: spill rows first (their union
// extent defines the bands), then interior rows inside the other
// table's band. The rounds' filters are complementary on the shrunk
// cell, so no row loads twice; NULL geometries fail both filters and
// stay out (they cannot satisfy the spatial join conjunct).
func (cn *Conn) buildComplement(ctx context.Context, infos []*tableInfo, d float64) (*engine.Engine, error) {
	// ε absorbs boundary-inclusive containment and float rounding in
	// the shrink arithmetic; any positive slack only grows the spill
	// set, never the other way.
	eps := d*1e-9 + 1e-9
	shrunk := make([]geom.Rect, cn.shards())
	for i := range shrunk {
		shrunk[i] = cn.c.part.CellRect(i).Expand(-(d + eps))
	}

	tabs := infos[:1]
	if infos[1].name != infos[0].name {
		tabs = infos
	}

	load := make([][][]storage.Value, len(tabs))
	ext := make([]geom.Rect, len(tabs))
	for ti, info := range tabs {
		ext[ti] = geom.EmptyRect()
		geo := info.cols[info.geomCol].Name
		queries := make([]string, cn.shards())
		for s := range queries {
			sel := complementSelect(info)
			if !shrunk[s].IsEmpty() {
				sel.Where = &sql.UnaryExpr{Op: "NOT", Expr: containsCall(shrunk[s], geo)}
			}
			// An over-shrunk (empty) cell has no interior: every row of
			// that shard spills, so the filter stays nil.
			queries[s] = renderSelect(sel)
		}
		byShard, err := cn.scatterEach(ctx, queries)
		if err != nil {
			return nil, err
		}
		for s, rows := range byShard {
			for _, r := range rows {
				if g := r[info.geomCol]; g.Type == storage.TypeGeom && g.Geom != nil {
					ext[ti] = ext[ti].Union(g.Geom.Envelope())
				}
				load[ti] = append(load[ti], tagShard(r, s))
			}
		}
	}

	for ti, info := range tabs {
		// Band partners react to the *other* table's spill extent; a
		// self-join's single table bands against its own.
		other := ext[len(ext)-1-ti]
		if len(tabs) == 1 {
			other = ext[0]
		}
		band := other.Expand(d)
		if band.IsEmpty() {
			continue
		}
		geo := info.cols[info.geomCol].Name
		queries := make([]string, cn.shards())
		for s := range queries {
			if shrunk[s].IsEmpty() {
				continue // round 1 already took the whole shard
			}
			sel := complementSelect(info)
			sel.Where = &sql.BinaryExpr{Op: "AND",
				Left: containsCall(shrunk[s], geo),
				Right: &sql.FuncCall{Name: "ST_INTERSECTS", Args: []sql.Expr{
					&sql.ColumnRef{Column: geo, Index: -1},
					envelopeLiteral(band),
				}},
			}
			queries[s] = renderSelect(sel)
		}
		byShard, err := cn.scatterEach(ctx, queries)
		if err != nil {
			return nil, err
		}
		for s, rows := range byShard {
			for _, r := range rows {
				load[ti] = append(load[ti], tagShard(r, s))
			}
		}
	}

	eng := engine.Open(cn.c.prof, engine.WithJoinStrategy(cn.c.joinStrat))
	for ti, info := range tabs {
		cols := append(append([]sql.Column(nil), info.cols...),
			sql.Column{Name: ShardColumn, Type: storage.TypeInt})
		if _, err := eng.ExecParsed(&sql.CreateTable{Name: info.name, Columns: cols}); err != nil {
			return nil, fmt.Errorf("cluster: pushdown schema for %s: %w", info.name, err)
		}
		if err := loadFragment(eng, info, load[ti]); err != nil {
			return nil, err
		}
		idx := &sql.CreateIndex{
			Name:    "__push_" + info.name + "_sidx",
			Table:   info.name,
			Columns: []string{info.cols[info.geomCol].Name},
			Spatial: true,
		}
		if _, err := eng.ExecParsed(idx); err != nil {
			return nil, fmt.Errorf("cluster: pushdown index for %s: %w", info.name, err)
		}
	}
	return eng, nil
}

// complementSelect projects a table's benchmark-visible columns (the
// shard-side star would drag the physical _seq along).
func complementSelect(info *tableInfo) *sql.Select {
	exprs := make([]sql.SelectExpr, len(info.cols))
	for i, c := range info.cols {
		exprs[i] = sql.SelectExpr{Expr: &sql.ColumnRef{Column: c.Name, Index: -1}}
	}
	return &sql.Select{Exprs: exprs, From: &sql.TableRef{Table: info.name}, Limit: -1}
}

// containsCall renders the interior test: the geometry lies inside the
// shrunk cell rectangle.
func containsCall(cell geom.Rect, geo string) sql.Expr {
	return &sql.FuncCall{Name: "ST_CONTAINS", Args: []sql.Expr{
		envelopeLiteral(cell),
		&sql.ColumnRef{Column: geo, Index: -1},
	}}
}

// tagShard copies a fetched row with its source shard appended in the
// _shard position.
func tagShard(r []storage.Value, shard int) []storage.Value {
	out := make([]storage.Value, 0, len(r)+1)
	out = append(out, r...)
	return append(out, storage.NewInt(int64(shard)))
}

// scatterEach runs a per-shard statement on every shard concurrently
// (skipping empty statements) and returns the rows in shard order.
func (cn *Conn) scatterEach(ctx context.Context, queries []string) ([][][]storage.Value, error) {
	out := make([][][]storage.Value, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for s := range queries {
		if queries[s] == "" {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rs, err := cn.queryShard(ctx, s, queries[s])
			if err != nil {
				errs[s] = err
				return
			}
			out[s] = rs.Rows
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
