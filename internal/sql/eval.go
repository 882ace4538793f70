package sql

import (
	"fmt"
	"strings"

	"jackpine/internal/storage"
)

// Scope describes the flattened row layout visible to expressions: one
// entry per column of the FROM tables in join order.
type Scope struct {
	cols []scopeCol
}

type scopeCol struct {
	binding string // table alias or name (lower case)
	col     Column
}

// NewScope builds a scope from (binding, columns) pairs in row order.
func NewScope() *Scope { return &Scope{} }

// AddTable appends a table's columns under the given binding name.
func (s *Scope) AddTable(binding string, cols []Column) {
	for _, c := range cols {
		s.cols = append(s.cols, scopeCol{binding: strings.ToLower(binding), col: c})
	}
}

// Len returns the width of the scope's row.
func (s *Scope) Len() int { return len(s.cols) }

// Column returns the schema of offset i.
func (s *Scope) Column(i int) Column { return s.cols[i].col }

// Binding returns the table binding of offset i.
func (s *Scope) Binding(i int) string { return s.cols[i].binding }

// Resolve locates a column reference, returning its row offset.
func (s *Scope) Resolve(table, column string) (int, error) {
	found := -1
	for i, sc := range s.cols {
		if sc.col.Name != column {
			continue
		}
		if table != "" && sc.binding != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", column)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sql: unknown column %s.%s", table, column)
		}
		return 0, fmt.Errorf("sql: unknown column %q", column)
	}
	return found, nil
}

// Bind resolves every column reference in the expression against the
// scope (mutating ColumnRef.Index) and verifies functions exist in reg.
// Aggregate calls are permitted only when aggOK.
func Bind(e Expr, s *Scope, reg *Registry, aggOK bool) error {
	switch t := e.(type) {
	case nil:
		return nil
	case *Literal:
		return nil
	case *slotRef:
		return Bind(t.sub, s, reg, aggOK)
	case *ColumnRef:
		idx, err := s.Resolve(strings.ToLower(t.Table), strings.ToLower(t.Column))
		if err != nil {
			return err
		}
		t.Index = idx
		return nil
	case *BinaryExpr:
		if err := Bind(t.Left, s, reg, aggOK); err != nil {
			return err
		}
		return Bind(t.Right, s, reg, aggOK)
	case *UnaryExpr:
		return Bind(t.Expr, s, reg, aggOK)
	case *IsNull:
		return Bind(t.Expr, s, reg, aggOK)
	case *Between:
		if err := Bind(t.Expr, s, reg, aggOK); err != nil {
			return err
		}
		if err := Bind(t.Lo, s, reg, aggOK); err != nil {
			return err
		}
		return Bind(t.Hi, s, reg, aggOK)
	case *FuncCall:
		if IsAggregateCall(t) {
			if !aggOK {
				return fmt.Errorf("sql: aggregate %s not allowed here", t.Name)
			}
			// Aggregate arguments must not nest aggregates.
			for _, a := range t.Args {
				if err := Bind(a, s, reg, false); err != nil {
					return err
				}
			}
			return nil
		}
		if !reg.Has(t.Name) {
			return fmt.Errorf("sql: function %s is not supported by this engine", t.Name)
		}
		for _, a := range t.Args {
			if err := Bind(a, s, reg, aggOK); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("sql: cannot bind %T", e)
	}
}

// IsAggregate reports whether name is an aggregate function. ST_UNION
// and ST_EXTENT are aggregates in their one-argument form only (the
// two-argument ST_UNION is the scalar overlay function); use
// IsAggregateCall where the argument count is known.
func IsAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// IsAggregateCall reports whether the call is an aggregate invocation,
// resolving the ST_UNION / ST_EXTENT arity overloads.
func IsAggregateCall(fc *FuncCall) bool {
	if IsAggregate(fc.Name) {
		return true
	}
	switch fc.Name {
	case "ST_UNION", "ST_EXTENT", PartialSumName:
		return !fc.Star && len(fc.Args) == 1
	}
	return false
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	switch t := e.(type) {
	case *FuncCall:
		if IsAggregateCall(t) {
			return true
		}
		for _, a := range t.Args {
			if HasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return HasAggregate(t.Left) || HasAggregate(t.Right)
	case *UnaryExpr:
		return HasAggregate(t.Expr)
	case *IsNull:
		return HasAggregate(t.Expr)
	case *Between:
		return HasAggregate(t.Expr) || HasAggregate(t.Lo) || HasAggregate(t.Hi)
	}
	return false
}

// Eval computes the expression over the row. Column references must have
// been bound first.
func Eval(e Expr, row []storage.Value, reg *Registry) (storage.Value, error) {
	switch t := e.(type) {
	case *Literal:
		return t.Value, nil
	case *ColumnRef:
		if t.Index < 0 || t.Index >= len(row) {
			return storage.Null(), fmt.Errorf("sql: unbound column %s", t)
		}
		return row[t.Index], nil
	case *UnaryExpr:
		v, err := Eval(t.Expr, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		switch t.Op {
		case "NOT":
			if v.IsNull() {
				return storage.Null(), nil
			}
			return storage.NewBool(!truthy(v)), nil
		case "-":
			switch v.Type {
			case storage.TypeInt:
				return storage.NewInt(-v.Int), nil
			case storage.TypeFloat:
				return storage.NewFloat(-v.Float), nil
			case storage.TypeNull:
				return storage.Null(), nil
			}
			return storage.Null(), fmt.Errorf("sql: cannot negate %s", v.Type)
		}
		return storage.Null(), fmt.Errorf("sql: unknown unary op %s", t.Op)
	case *IsNull:
		v, err := Eval(t.Expr, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		return storage.NewBool(v.IsNull() != t.Negate), nil
	case *Between:
		v, err := Eval(t.Expr, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		lo, err := Eval(t.Lo, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		hi, err := Eval(t.Hi, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return storage.Null(), nil
		}
		cLo, ok1 := storage.Compare(v, lo)
		cHi, ok2 := storage.Compare(v, hi)
		if !ok1 || !ok2 {
			return storage.Null(), fmt.Errorf("sql: BETWEEN on incomparable types")
		}
		return storage.NewBool(cLo >= 0 && cHi <= 0), nil
	case *BinaryExpr:
		return evalBinary(t, row, reg)
	case *slotRef:
		return t.eval(row, reg)
	case *FuncCall:
		if IsAggregateCall(t) {
			return storage.Null(), fmt.Errorf("sql: aggregate %s evaluated outside aggregation", t.Name)
		}
		if t.prep != nil {
			// Topological call with a prepared constant side: evaluate
			// only the variable operand and reuse the cached
			// decomposition (see preparedCall.eval for the semantics
			// guarantee).
			return t.prep.eval(t, row, reg)
		}
		args := make([]storage.Value, len(t.Args))
		for i, a := range t.Args {
			v, err := Eval(a, row, reg)
			if err != nil {
				return storage.Null(), err
			}
			args[i] = v
		}
		return reg.Call(t.Name, args)
	}
	return storage.Null(), fmt.Errorf("sql: cannot evaluate %T", e)
}

// truthy interprets a value as a boolean condition.
func truthy(v storage.Value) bool {
	switch v.Type {
	case storage.TypeBool:
		return v.Int != 0
	case storage.TypeInt:
		return v.Int != 0
	case storage.TypeFloat:
		return v.Float != 0
	case storage.TypeText:
		return v.Text != ""
	case storage.TypeNull:
		return false
	}
	return true
}

func evalBinary(b *BinaryExpr, row []storage.Value, reg *Registry) (storage.Value, error) {
	// Short-circuit logic with SQL three-valued semantics approximated
	// as NULL-propagating.
	switch b.Op {
	case "AND":
		l, err := Eval(b.Left, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		if !l.IsNull() && !truthy(l) {
			return storage.NewBool(false), nil
		}
		r, err := Eval(b.Right, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		if !r.IsNull() && !truthy(r) {
			return storage.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		return storage.NewBool(true), nil
	case "OR":
		l, err := Eval(b.Left, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		if !l.IsNull() && truthy(l) {
			return storage.NewBool(true), nil
		}
		r, err := Eval(b.Right, row, reg)
		if err != nil {
			return storage.Null(), err
		}
		if !r.IsNull() && truthy(r) {
			return storage.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		return storage.NewBool(false), nil
	}

	l, err := Eval(b.Left, row, reg)
	if err != nil {
		return storage.Null(), err
	}
	r, err := Eval(b.Right, row, reg)
	if err != nil {
		return storage.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}

	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := storage.Compare(l, r)
		if !ok {
			return storage.Null(), fmt.Errorf("sql: cannot compare %s with %s", l.Type, r.Type)
		}
		var res bool
		switch b.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return storage.NewBool(res), nil

	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, l, r)

	case "||":
		return storage.NewText(l.String() + r.String()), nil

	case "LIKE":
		if l.Type != storage.TypeText || r.Type != storage.TypeText {
			return storage.Null(), fmt.Errorf("sql: LIKE requires text operands")
		}
		return storage.NewBool(likeMatch(l.Text, r.Text)), nil
	}
	return storage.Null(), fmt.Errorf("sql: unknown operator %s", b.Op)
}

func evalArith(op string, l, r storage.Value) (storage.Value, error) {
	if l.Type == storage.TypeInt && r.Type == storage.TypeInt {
		a, b := l.Int, r.Int
		switch op {
		case "+":
			return storage.NewInt(a + b), nil
		case "-":
			return storage.NewInt(a - b), nil
		case "*":
			return storage.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return storage.Null(), fmt.Errorf("sql: division by zero")
			}
			return storage.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return storage.Null(), fmt.Errorf("sql: division by zero")
			}
			return storage.NewInt(a % b), nil
		}
	}
	a, okA := l.AsFloat()
	b, okB := r.AsFloat()
	if !okA || !okB {
		return storage.Null(), fmt.Errorf("sql: arithmetic on %s and %s", l.Type, r.Type)
	}
	switch op {
	case "+":
		return storage.NewFloat(a + b), nil
	case "-":
		return storage.NewFloat(a - b), nil
	case "*":
		return storage.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return storage.Null(), fmt.Errorf("sql: division by zero")
		}
		return storage.NewFloat(a / b), nil
	case "%":
		return storage.Null(), fmt.Errorf("sql: %% requires integer operands")
	}
	return storage.Null(), fmt.Errorf("sql: unknown arithmetic op %s", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		pc := pattern[j-1]
		cur[0] = prev[0] && pc == '%'
		for i := 1; i <= n; i++ {
			switch pc {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pc
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
