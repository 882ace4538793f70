package sql

import (
	"fmt"
	"strconv"
	"strings"

	"jackpine/internal/storage"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).parse()
}

// parse parses the token stream as one statement, optionally ended by
// a semicolon.
func (p *parser) parse() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().raw)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
	// lits, when non-nil, records each value literal the parse builds
	// from a number or string token (the shape cache's template parse,
	// shape.go); nil for a plain Parse.
	lits *[]litNode
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token when it matches kind and (for idents and
// ops) the given text.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.peek()
	if t.kind != kind || (text != "" && t.text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errorf("expected %s, found %q", want, t.raw)
	}
	return p.advance(), nil
}

// keyword consumes the identifier keyword kw if next.
func (p *parser) keyword(kw string) bool { return p.accept(tokIdent, kw) }

func (p *parser) expectKeyword(kw string) error {
	_, err := p.expect(tokIdent, kw)
	return err
}

func (p *parser) identifier() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return strings.ToLower(t.raw), nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch p.peek().text {
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "DROP":
		p.advance()
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		ifExists := false
		if p.keyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		table, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return &DropTable{Table: table, IfExists: ifExists}, nil
	case "VACUUM":
		p.advance()
		table, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return &Vacuum{Table: table}, nil
	case "EXPLAIN":
		p.advance()
		if p.peek().text != "SELECT" {
			return nil, p.errorf("EXPLAIN supports SELECT statements only")
		}
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: inner.(*Select)}, nil
	default:
		return nil, p.errorf("expected statement, found %q", p.peek().raw)
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.keyword("TABLE"):
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var cols []Column
		for {
			colName, err := p.identifier()
			if err != nil {
				return nil, err
			}
			colType, err := p.parseType()
			if err != nil {
				return nil, err
			}
			cols = append(cols, Column{Name: colName, Type: colType})
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &CreateTable{Name: name, Columns: cols}, nil

	case p.keyword("SPATIAL"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseIndexTail(true)
	case p.keyword("INDEX"):
		return p.parseIndexTail(false)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseIndexTail(spatial bool) (Statement, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Spatial: spatial}, nil
}

func (p *parser) parseType() (storage.ValueType, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return 0, err
	}
	// Swallow VARCHAR(n)-style size arguments.
	if p.accept(tokOp, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return 0, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return 0, err
		}
	}
	switch t.text {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return storage.TypeInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return storage.TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return storage.TypeText, nil
	case "GEOMETRY", "POINT", "LINESTRING", "POLYGON", "MULTIPOLYGON", "MULTILINESTRING":
		return storage.TypeGeom, nil
	case "BOOL", "BOOLEAN":
		return storage.TypeBool, nil
	default:
		return 0, p.errorf("unknown type %q", t.raw)
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	sel := &Select{Limit: -1}
	for {
		if p.accept(tokOp, "*") {
			sel.Exprs = append(sel.Exprs, SelectExpr{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectExpr{Expr: e}
			if p.keyword("AS") {
				alias, err := p.identifier()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			sel.Exprs = append(sel.Exprs, item)
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for p.keyword("JOIN") || p.peek().text == "INNER" {
		if p.peek().text == "INNER" {
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, Join{Table: ref, On: cond})
	}
	if p.keyword("WHERE") {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.keyword("DESC") {
				key.Desc = true
			} else {
				p.keyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, key)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.keyword("LIMIT") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if p.keyword("OFFSET") {
			if sel.Offset, err = p.parseNonNegInt(); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

func (p *parser) parseNonNegInt() (int, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errorf("expected non-negative integer, found %q", t.raw)
	}
	return n, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: name}
	if p.keyword("AS") {
		if ref.Alias, err = p.identifier(); err != nil {
			return nil, err
		}
	} else if t := p.peek(); t.kind == tokIdent && !reservedWord(t.text) {
		p.advance()
		ref.Alias = strings.ToLower(t.raw)
	}
	return ref, nil
}

func reservedWord(w string) bool {
	switch w {
	case "JOIN", "INNER", "ON", "WHERE", "GROUP", "ORDER", "LIMIT", "OFFSET",
		"AS", "AND", "OR", "NOT", "SET", "VALUES", "FROM", "BY", "DESC", "ASC",
		"IS", "NULL", "BETWEEN", "LIKE", "SELECT", "INSERT", "UPDATE", "DELETE":
		return true
	}
	return false
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Expr: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.keyword("WHERE") {
		if upd.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.identifier()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.keyword("WHERE") {
		if del.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

// --- expression parsing (precedence climbing) --------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.keyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.keyword("IS") {
		negate := p.keyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Expr: left, Negate: negate}, nil
	}
	if p.keyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{Expr: left, Lo: lo, Hi: hi}, nil
	}
	if p.keyword("LIKE") {
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "LIKE", Left: left, Right: right}, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(tokOp, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", Left: left, Right: right}
		case p.accept(tokOp, "-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", Left: left, Right: right}
		case p.accept(tokOp, "||"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "||", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "*", Left: left, Right: right}
		case p.accept(tokOp, "/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "/", Left: left, Right: right}
		case p.accept(tokOp, "%"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "%", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			var folded *Literal
			switch lit.Value.Type {
			case storage.TypeInt:
				folded = &Literal{Value: storage.NewInt(-lit.Value.Int)}
			case storage.TypeFloat:
				folded = &Literal{Value: storage.NewFloat(-lit.Value.Float)}
			}
			if folded != nil {
				p.noteFold(lit, folded)
				return folded, nil
			}
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

// noteLiteral records that token tok became lit.
func (p *parser) noteLiteral(tok int, lit *Literal) *Literal {
	if p.lits != nil {
		*p.lits = append(*p.lits, litNode{tok: tok, node: lit})
	}
	return lit
}

// noteFold records that a unary minus folded lit into folded.
func (p *parser) noteFold(lit, folded *Literal) {
	if p.lits == nil {
		return
	}
	for i := len(*p.lits) - 1; i >= 0; i-- {
		if n := &(*p.lits)[i]; n.node == lit {
			n.node = folded
			n.neg++
			return
		}
	}
}

// floatText reports whether a number token is a float literal rather
// than an integer one.
func floatText(num string) bool {
	for i := 0; i < len(num); i++ {
		if c := num[i]; c == '.' || c == 'e' || c == 'E' {
			return true
		}
	}
	return false
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if floatText(t.text) {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.raw)
			}
			return p.noteLiteral(p.pos-1, &Literal{Value: storage.NewFloat(f)}), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.raw)
		}
		return p.noteLiteral(p.pos-1, &Literal{Value: storage.NewInt(n)}), nil

	case tokString:
		p.advance()
		return p.noteLiteral(p.pos-1, &Literal{Value: storage.NewText(t.text)}), nil

	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected token %q", t.raw)

	case tokIdent:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Value: storage.Null()}, nil
		case "TRUE":
			p.advance()
			return &Literal{Value: storage.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Value: storage.NewBool(false)}, nil
		}
		p.advance()
		// Function call?
		if p.accept(tokOp, "(") {
			fn := &FuncCall{Name: t.text}
			if p.accept(tokOp, "*") {
				fn.Star = true
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				return fn, nil
			}
			if !p.accept(tokOp, ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, arg)
					if !p.accept(tokOp, ",") {
						break
					}
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			return fn, nil
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: strings.ToLower(t.raw), Column: col}, nil
		}
		return &ColumnRef{Column: strings.ToLower(t.raw)}, nil
	}
	return nil, p.errorf("unexpected token %q", t.raw)
}
