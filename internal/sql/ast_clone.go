package sql

// CloneStatement deep-copies a parsed statement. The cluster rewriter
// clones the client's statement before editing it into per-shard
// variants, and every variant it executes must own its tree, because
// binding mutates ColumnRef.Index in place: two executions sharing one
// tree would race on it, and offsets bound against one table could leak
// into a run against another.
func CloneStatement(s Statement) Statement {
	switch t := s.(type) {
	case *CreateTable:
		cp := *t
		cp.Columns = append([]Column(nil), t.Columns...)
		return &cp
	case *CreateIndex:
		cp := *t
		cp.Columns = append([]string(nil), t.Columns...)
		return &cp
	case *Insert:
		cp := *t
		cp.Rows = make([][]Expr, len(t.Rows))
		for i, row := range t.Rows {
			cp.Rows[i] = cloneExprs(row)
		}
		return &cp
	case *Select:
		return cloneSelect(t)
	case *Update:
		cp := *t
		cp.Set = make([]Assignment, len(t.Set))
		for i, a := range t.Set {
			cp.Set[i] = Assignment{Column: a.Column, Expr: cloneExpr(a.Expr)}
		}
		cp.Where = cloneExpr(t.Where)
		return &cp
	case *Delete:
		cp := *t
		cp.Where = cloneExpr(t.Where)
		return &cp
	case *Explain:
		return &Explain{Query: cloneSelect(t.Query)}
	case *Vacuum:
		cp := *t
		return &cp
	case *DropTable:
		cp := *t
		return &cp
	}
	return s
}

func cloneSelect(sel *Select) *Select {
	if sel == nil {
		return nil
	}
	cp := *sel
	cp.Exprs = make([]SelectExpr, len(sel.Exprs))
	for i, se := range sel.Exprs {
		cp.Exprs[i] = SelectExpr{Expr: cloneExpr(se.Expr), Alias: se.Alias, Star: se.Star}
	}
	if sel.From != nil {
		f := *sel.From
		cp.From = &f
	}
	cp.Joins = make([]Join, len(sel.Joins))
	for i, j := range sel.Joins {
		cp.Joins[i] = Join{On: cloneExpr(j.On)}
		if j.Table != nil {
			tr := *j.Table
			cp.Joins[i].Table = &tr
		}
	}
	cp.Where = cloneExpr(sel.Where)
	cp.GroupBy = cloneExprs(sel.GroupBy)
	cp.OrderBy = make([]OrderKey, len(sel.OrderBy))
	for i, ok := range sel.OrderBy {
		cp.OrderBy[i] = OrderKey{Expr: cloneExpr(ok.Expr), Desc: ok.Desc}
	}
	return &cp
}

func cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cloneExpr(e)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *Literal:
		cp := *t
		return &cp
	case *ColumnRef:
		cp := *t
		return &cp
	case *BinaryExpr:
		return &BinaryExpr{Op: t.Op, Left: cloneExpr(t.Left), Right: cloneExpr(t.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: t.Op, Expr: cloneExpr(t.Expr)}
	case *FuncCall:
		return &FuncCall{Name: t.Name, Args: cloneExprs(t.Args), Star: t.Star}
	case *IsNull:
		return &IsNull{Expr: cloneExpr(t.Expr), Negate: t.Negate}
	case *Between:
		return &Between{Expr: cloneExpr(t.Expr), Lo: cloneExpr(t.Lo), Hi: cloneExpr(t.Hi)}
	}
	return e
}
