// Package sql implements the query processing layer of the spatial
// engines: a lexer and parser for a compact SQL dialect with spatial
// (ST_*) functions, a planner that selects spatial (R-tree / grid) and
// attribute (B+tree) index access paths, and a volcano-style executor
// with sequential, index and k-nearest-neighbour scans, filters, joins,
// sorting, grouping and aggregation.
//
// The dialect covers the statements the Jackpine workloads need:
//
//	CREATE TABLE t (col TYPE, ...)
//	CREATE [SPATIAL] INDEX name ON t (col)
//	INSERT INTO t VALUES (expr, ...), ...
//	SELECT exprs FROM t [AS a] [JOIN u [AS b] ON cond] [WHERE cond]
//	    [GROUP BY exprs] [ORDER BY expr [ASC|DESC], ...]
//	    [LIMIT n [OFFSET m]]
//	UPDATE t SET col = expr [, ...] [WHERE cond]
//	DELETE FROM t [WHERE cond]
package sql

import (
	"fmt"
	"slices"
	"strings"

	"jackpine/internal/storage"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name    string
	Columns []Column
}

// CreateIndex is a CREATE [SPATIAL] INDEX statement.
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Spatial bool
}

// Insert is an INSERT INTO ... VALUES statement.
type Insert struct {
	Table string
	Rows  [][]Expr
}

// Select is a SELECT statement.
//
// No statement node is written after Parse: execution binds into a tree
// of its own, so one parsed statement may run any number of times, from
// any number of goroutines.
type Select struct {
	Exprs   []SelectExpr
	From    *TableRef
	Joins   []Join
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderKey
	Limit   int // -1 when absent
	Offset  int
}

// SelectExpr is one projection item. Star marks "*".
type SelectExpr struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the effective binding name for the reference.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// Join is one JOIN clause.
type Join struct {
	Table *TableRef
	On    Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Update is an UPDATE statement.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Expr   Expr
}

// Delete is a DELETE statement.
type Delete struct {
	Table string
	Where Expr
}

// Explain reports the access plan of a query without executing it.
type Explain struct {
	Query *Select
}

// Vacuum rewrites a table's heap, reclaiming the space of deleted and
// updated rows, and rebuilds its indexes.
type Vacuum struct {
	Table string
}

// DropTable removes a table and its indexes.
type DropTable struct {
	Table    string
	IfExists bool
}

// CloneStatement returns a SELECT a caller may edit into a variant (the
// cluster router's per-shard rewrites): the Select and its slices are
// copied, the expression trees shared, since nothing writes a parsed
// tree. Any other statement is returned as is.
func CloneStatement(s Statement) Statement {
	sel, ok := s.(*Select)
	if !ok {
		return s
	}
	cp := *sel
	cp.Exprs = slices.Clone(sel.Exprs)
	cp.Joins = slices.Clone(sel.Joins)
	cp.GroupBy = slices.Clone(sel.GroupBy)
	cp.OrderBy = slices.Clone(sel.OrderBy)
	return &cp
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Explain) stmt()     {}
func (*Vacuum) stmt()      {}
func (*DropTable) stmt()   {}

// Column describes one table column.
type Column struct {
	Name string
	Type storage.ValueType
}

// Expr is any expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// Literal is a constant value.
type Literal struct{ Value storage.Value }

// ColumnRef names a column, optionally qualified by table/alias. It is
// plain parser output: Bind resolves it to a row offset in a node of
// its own (see bind.go) and never writes this one.
type ColumnRef struct {
	Table  string
	Column string
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op          string // =, <>, <, <=, >, >=, +, -, *, /, %, AND, OR, LIKE
	Left, Right Expr
}

// UnaryExpr applies a prefix operator (NOT, -).
type UnaryExpr struct {
	Op   string
	Expr Expr
}

// FuncCall invokes a scalar or aggregate function. It is plain parser
// output: Bind resolves the function, or places the aggregate's
// result, in a node of its own (see bind.go) and never writes this one.
type FuncCall struct {
	Name string // canonical upper-case
	Args []Expr
	Star bool // COUNT(*)
}

// IsNull tests for SQL NULL (negated when Negate).
type IsNull struct {
	Expr   Expr
	Negate bool
}

// Between tests lo <= e <= hi.
type Between struct {
	Expr, Lo, Hi Expr
}

func (*Literal) expr()    {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*FuncCall) expr()   {}
func (*IsNull) expr()     {}
func (*Between) expr()    {}

// String renders the literal.
func (l *Literal) String() string {
	if l.Value.Type == storage.TypeText {
		return "'" + strings.ReplaceAll(l.Value.Text, "'", "''") + "'"
	}
	return l.Value.String()
}

// String renders the column reference.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// String renders the operator expression.
func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// String renders the unary expression.
func (u *UnaryExpr) String() string { return u.Op + " " + u.Expr.String() }

// String renders the call.
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// String renders the null test.
func (n *IsNull) String() string {
	if n.Negate {
		return n.Expr.String() + " IS NOT NULL"
	}
	return n.Expr.String() + " IS NULL"
}

// String renders the range test.
func (b *Between) String() string {
	return b.Expr.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
}
