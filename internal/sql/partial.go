package sql

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"

	"jackpine/internal/storage"
)

// PartialSumName is the hidden aggregate a distributed query router
// substitutes for SUM and AVG when fanning an aggregate query out across
// shards. Each shard accumulates exactly like SUM but finalizes to its
// text-encoded aggState sum fields instead of a rounded float, so the
// router can merge shard states and round once — producing the same
// bits as a single engine summing every row itself (the accumulator is
// an exact big.Float, see sumPrec).
//
// The name is not parseable-by-accident: it only enters queries through
// a router rewrite.
const PartialSumName = "__PARTIAL_SUM"

// encodePartialSum renders a state's sum fields as text. The big.Float
// sum uses the 'p' (hexadecimal mantissa, binary exponent) format,
// which round-trips exactly; the non-finite bucket is carried as raw
// float64 bits.
func encodePartialSum(st *aggState) string {
	sum := ""
	if st.sum != nil {
		sum = st.sum.Text('p', 0)
	}
	return fmt.Sprintf("%d|%d|%t|%t|%s|%s",
		st.count, st.sumInt, st.intOnly, st.hasBad,
		strconv.FormatUint(math.Float64bits(st.sumBad), 16), sum)
}

// decodePartialSum parses encodePartialSum's text into st's sum fields.
func decodePartialSum(s string, st *aggState) error {
	parts := strings.SplitN(s, "|", 6)
	if len(parts) != 6 {
		return fmt.Errorf("sql: malformed partial sum %q", s)
	}
	var err error
	if st.count, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return fmt.Errorf("sql: partial sum count: %w", err)
	}
	if st.sumInt, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return fmt.Errorf("sql: partial sum int: %w", err)
	}
	if st.intOnly, err = strconv.ParseBool(parts[2]); err != nil {
		return fmt.Errorf("sql: partial sum intOnly: %w", err)
	}
	if st.hasBad, err = strconv.ParseBool(parts[3]); err != nil {
		return fmt.Errorf("sql: partial sum hasBad: %w", err)
	}
	bits, err := strconv.ParseUint(parts[4], 16, 64)
	if err != nil {
		return fmt.Errorf("sql: partial sum bad bits: %w", err)
	}
	st.sumBad = math.Float64frombits(bits)
	if parts[5] != "" {
		if st.sum, _, err = big.ParseFloat(parts[5], 0, sumPrec, big.ToNearestEven); err != nil {
			return fmt.Errorf("sql: partial sum value: %w", err)
		}
	}
	return nil
}

// partialState turns one shard's partial value for the aggregate call
// name into the state that produced it: COUNT, MIN, MAX and ST_EXTENT
// arrive as the call returned them, SUM and AVG as PartialSumName's
// encoded state.
func partialState(name string, v storage.Value) (aggState, error) {
	st := newAggStates(1)[0]
	switch name {
	case "COUNT":
		st.count = v.Int
	case "SUM", "AVG", PartialSumName:
		if v.Type != storage.TypeText {
			return st, fmt.Errorf("sql: %s partial is %s, want TEXT", name, v.Type)
		}
		return st, decodePartialSum(v.Text, &st)
	case "MIN", "MAX":
		st.min, st.max, st.seen = v, v, !v.IsNull()
	case "ST_EXTENT":
		if v.Type == storage.TypeGeom && v.Geom != nil {
			st.extent, st.seen = v.Geom.Envelope(), true
		}
	default:
		return st, fmt.Errorf("sql: %s has no shard partial", name)
	}
	return st, nil
}

// PartialItems builds the shard-side projection of a global aggregate
// whose select list, bound with Bind, is exprs: one partial state per
// aggregate call, in MergePartials' order — SUM and AVG as
// PartialSumName, COUNT, MIN, MAX and ST_EXTENT as written. ok is false
// when the partials cannot express the statement: a star item, a column
// read outside an aggregate argument, or an ST_UNION aggregate, whose
// result depends on input order.
func PartialItems(exprs []Expr) (items []SelectExpr, ok bool) {
	ok = true
	free := 0 // column references outside every aggregate argument
	countCols := func(e Expr, n int) {
		walkExpr(e, func(x Expr) {
			if _, isCol := x.(*colRef); isCol {
				free += n
			}
		})
	}
	for _, e := range exprs {
		if e == nil {
			return nil, false
		}
		countCols(e, 1)
		walkExpr(e, func(x Expr) {
			a, isAgg := x.(*aggRef)
			if !isAgg {
				return
			}
			countCols(a.arg, -1)
			item := SelectExpr{Expr: a.src}
			switch a.src.Name {
			case "ST_UNION":
				ok = false
			case "SUM", "AVG":
				item.Expr = &FuncCall{Name: PartialSumName, Args: a.src.Args}
			}
			items = append(items, item)
		})
	}
	return items, ok && free == 0
}

// MergePartials finalizes a global aggregate from per-shard partial
// rows through the aggregator's own merge: exprs is the select list
// bound against the query's scope (Bind), and each shard row holds one
// partial per aggregate call, in bind order (PartialSumName standing in
// for SUM and AVG). The shards' states merge in row order — MIN and MAX
// ties keep the earlier shard, as a parallel plan's worker merge does —
// and the select list is evaluated over the finalized results.
func MergePartials(exprs []Expr, shards [][]storage.Value, reg *Registry) ([]storage.Value, error) {
	var aggs []*aggRef
	width := 0
	for _, e := range exprs {
		walkExpr(e, func(x Expr) {
			if a, ok := x.(*aggRef); ok {
				aggs = append(aggs, a)
				width = max(width, a.pos+1)
			}
		})
	}
	states := newAggStates(len(aggs))
	for s, row := range shards {
		if len(row) != len(aggs) {
			return nil, fmt.Errorf("sql: shard partial %d has %d values for %d aggregates", s, len(row), len(aggs))
		}
		for i, a := range aggs {
			st, err := partialState(a.src.Name, row[i])
			if err != nil {
				return nil, err
			}
			mergeState(&states[i], &st)
		}
	}
	a := newAggregator(reg, nil, exprs, aggs)
	a.groups[""] = &aggGroup{firstRow: make([]storage.Value, width), states: states}
	a.order = append(a.order, "")
	rows, err := a.rows(width)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}
