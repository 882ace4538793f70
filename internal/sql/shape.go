package sql

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"jackpine/internal/storage"
)

// Statement shapes. A client's SELECT texts mostly differ only in their
// literals, so ShapeCache parses each shape once. A scan that follows
// the lexer's token rules (lexer.scan) writes the text with every
// number and string literal replaced by a kind marker: that is the
// shape's key. The first text of a shape is parsed with its value
// literals recorded, and the tree is kept as the shape's template.
// Another text of the shape converts its literals as parsePrimary would
// and gets a copy of the template in which only the nodes on the path
// from the root to a literal are new: every literal-free subtree is
// shared, which the read-only parse tree allows (see Select).
//
// A literal the parse consumed other than as a value (a keyword
// spelled as a string, say) must repeat the template's text exactly.
// LIMIT and OFFSET counts stay in the key. When a literal does not
// repeat or does not convert, the text goes to Parse, so every error
// and its offset are Parse's own.

const (
	// maxShapes bounds the templates one cache holds; adding one past
	// it drops another.
	maxShapes = 128
	// maxShapeText bounds the length of a cached statement's text; a
	// longer one is parsed afresh.
	maxShapeText = 4096
)

// The key bytes standing for a lifted literal. A text holding any of
// them is parsed afresh, so a key splits back into its text unambiguously.
const (
	markInt   byte = 1
	markFloat byte = 2
	markText  byte = 3
)

// hasMark reports whether s holds a key marker byte.
func hasMark(s string) bool {
	return strings.IndexByte(s, markInt) >= 0 || strings.IndexByte(s, markFloat) >= 0 ||
		strings.IndexByte(s, markText) >= 0
}

// ShapeCache caches the parse trees of SELECT and EXPLAIN SELECT
// statements by shape. It holds parse trees only: no plan, nothing of a
// catalog, so nothing invalidates it. The zero value is ready to use,
// and it is safe for concurrent use.
type ShapeCache struct {
	mu     sync.Mutex
	shapes map[string]*shape
	builds int // templates built, for tests
}

// shape is one cached template.
type shape struct {
	stmt  Statement
	slots []slot     // one per lifted literal, in text order
	nodes []*Literal // the template's value literals, in rewrite order
	order []int      // the slot of each of nodes
}

// slot describes one lifted literal of a shape.
type slot struct {
	mark byte
	neg  int // unary minuses folded into the literal
	// fixed is the template's text of a literal the parse consumed
	// other than as a value, which every text of the shape must
	// repeat; "" for a value literal.
	fixed string
}

// litSpan is one lifted literal of a scanned text.
type litSpan struct {
	start, end int
	mark       byte
}

// litNode ties a value literal to the token it was parsed from; neg
// counts the unary minuses folded into it.
type litNode struct {
	tok  int
	node *Literal
	neg  int
}

// shapeScratch is one lookup's key, literal spans and values, pooled.
type shapeScratch struct {
	key   []byte
	spans []litSpan
	vals  []storage.Value
}

var shapeScratchPool = sync.Pool{New: func() any { return new(shapeScratch) }}

// Parse returns what Parse(src) returns: the same tree, up to shared
// subtrees, or the same error.
func (c *ShapeCache) Parse(src string) (Statement, error) {
	if len(src) > maxShapeText || hasMark(src) {
		return Parse(src)
	}
	sc := shapeScratchPool.Get().(*shapeScratch)
	defer shapeScratchPool.Put(sc)
	if !sc.scan(src) {
		return Parse(src)
	}
	c.mu.Lock()
	sh := c.shapes[string(sc.key)]
	c.mu.Unlock()
	if sh == nil {
		return c.build(src, sc)
	}
	if stmt, ok := sh.fill(src, sc); ok {
		return stmt, nil
	}
	return Parse(src)
}

// scan writes src's key and literal spans into sc. It reports false
// for a text that is not a SELECT or EXPLAIN, after one token, and for
// one that does not lex.
func (sc *shapeScratch) scan(src string) bool {
	sc.key, sc.spans = sc.key[:0], sc.spans[:0]
	l := lexer{src: src}
	copied, prev := 0, ""
	for first := true; ; first = false {
		kind, start, fault := l.scan()
		if fault != lexOK {
			return false
		}
		tok := src[start:l.pos]
		if first && (kind != tokIdent || !strings.EqualFold(tok, "SELECT") && !strings.EqualFold(tok, "EXPLAIN")) {
			return false
		}
		mark := markText
		switch kind {
		case tokEOF:
			sc.key = append(sc.key, src[copied:]...)
			return true
		case tokNumber:
			if strings.EqualFold(prev, "LIMIT") || strings.EqualFold(prev, "OFFSET") {
				break // a row count stays in the key
			}
			mark = markInt
			if floatText(tok) {
				mark = markFloat
			}
			fallthrough
		case tokString:
			sc.key = append(append(sc.key, src[copied:start]...), mark)
			sc.spans = append(sc.spans, litSpan{start: start, end: l.pos, mark: mark})
			copied = l.pos
		}
		prev = ""
		if kind == tokIdent {
			prev = tok
		}
	}
}

// build parses src, whose key and spans are in sc, keeping its tree as
// the shape's template.
func (c *ShapeCache) build(src string, sc *shapeScratch) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	var lits []litNode
	stmt, err := (&parser{toks: toks, lits: &lits}).parse()
	if err != nil {
		return nil, err
	}
	sh := &shape{stmt: stmt, slots: make([]slot, len(sc.spans))}
	slotAt := make(map[int]int, len(sc.spans)) // span start → slot
	for i, sp := range sc.spans {
		sh.slots[i] = slot{mark: sp.mark, fixed: src[sp.start:sp.end]}
		slotAt[sp.start] = i
	}
	slotOf := make(map[*Literal]int, len(lits))
	for _, n := range lits {
		if i, ok := slotAt[toks[n.tok].pos]; ok {
			sh.slots[i] = slot{mark: sh.slots[i].mark, neg: n.neg}
			slotOf[n.node] = i
		}
	}
	rewriteStatement(stmt, func(l *Literal) *Literal {
		if i, ok := slotOf[l]; ok {
			sh.nodes = append(sh.nodes, l)
			sh.order = append(sh.order, i)
		}
		return l
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shapes[string(sc.key)]; ok { // another caller built it meanwhile
		return stmt, nil
	}
	if c.shapes == nil {
		c.shapes = make(map[string]*shape)
	}
	if len(c.shapes) >= maxShapes {
		for k := range c.shapes {
			delete(c.shapes, k)
			break
		}
	}
	c.shapes[string(sc.key)] = sh
	c.builds++
	return stmt, nil
}

// fill returns the template with src's literals, whose spans are in
// sc, or false when src must be parsed afresh.
func (sh *shape) fill(src string, sc *shapeScratch) (Statement, bool) {
	if len(sc.spans) != len(sh.slots) {
		return nil, false
	}
	sc.vals = sc.vals[:0]
	for i, sp := range sc.spans {
		s, tok := &sh.slots[i], src[sp.start:sp.end]
		var v storage.Value
		switch {
		case s.fixed != "":
			if tok != s.fixed {
				return nil, false
			}
		case s.mark == markText:
			v = storage.NewText(unquote(tok))
		case s.mark == markFloat:
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, false
			}
			v = storage.NewFloat(f)
			for range s.neg {
				v = storage.NewFloat(-v.Float)
			}
		default:
			n, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, false
			}
			v = storage.NewInt(n)
			for range s.neg {
				v = storage.NewInt(-v.Int)
			}
		}
		sc.vals = append(sc.vals, v)
	}
	if len(sh.nodes) == 0 {
		return sh.stmt, true
	}
	lits, k := make([]Literal, len(sh.nodes)), 0
	return rewriteStatement(sh.stmt, func(l *Literal) *Literal {
		if k == len(sh.nodes) || l != sh.nodes[k] {
			return l
		}
		lits[k].Value = sc.vals[sh.order[k]]
		k++
		return &lits[k-1]
	}), true
}

// rewriteStatement returns st with each literal l replaced by lit(l).
// Only the nodes on a path from the root to a replaced literal are
// copied; the rest of the tree is shared.
func rewriteStatement(st Statement, lit func(*Literal) *Literal) Statement {
	switch s := st.(type) {
	case *Select:
		if sel := rewriteSelect(s, lit); sel != s {
			return sel
		}
	case *Explain:
		if q := rewriteSelect(s.Query, lit); q != s.Query {
			return &Explain{Query: q}
		}
	}
	return st
}

func rewriteSelect(s *Select, lit func(*Literal) *Literal) *Select {
	exprs, c1 := rewriteEach(s.Exprs, func(x SelectExpr) SelectExpr {
		x.Expr = rewriteExpr(x.Expr, lit)
		return x
	})
	joins, c2 := rewriteEach(s.Joins, func(j Join) Join {
		j.On = rewriteExpr(j.On, lit)
		return j
	})
	where := rewriteExpr(s.Where, lit)
	group, c3 := rewriteEach(s.GroupBy, func(e Expr) Expr { return rewriteExpr(e, lit) })
	order, c4 := rewriteEach(s.OrderBy, func(k OrderKey) OrderKey {
		k.Expr = rewriteExpr(k.Expr, lit)
		return k
	})
	if !c1 && !c2 && !c3 && !c4 && where == s.Where {
		return s
	}
	cp := *s
	cp.Exprs, cp.Joins, cp.Where, cp.GroupBy, cp.OrderBy = exprs, joins, where, group, order
	return &cp
}

func rewriteExpr(e Expr, lit func(*Literal) *Literal) Expr {
	switch n := e.(type) {
	case *Literal:
		return lit(n)
	case *BinaryExpr:
		if l, r := rewriteExpr(n.Left, lit), rewriteExpr(n.Right, lit); l != n.Left || r != n.Right {
			return &BinaryExpr{Op: n.Op, Left: l, Right: r}
		}
	case *UnaryExpr:
		if x := rewriteExpr(n.Expr, lit); x != n.Expr {
			return &UnaryExpr{Op: n.Op, Expr: x}
		}
	case *FuncCall:
		for i, a := range n.Args {
			if x := rewriteExpr(a, lit); x != a {
				return rewriteCall(n, i, x, lit)
			}
		}
	case *IsNull:
		if x := rewriteExpr(n.Expr, lit); x != n.Expr {
			return &IsNull{Expr: x, Negate: n.Negate}
		}
	case *Between:
		x, lo, hi := rewriteExpr(n.Expr, lit), rewriteExpr(n.Lo, lit), rewriteExpr(n.Hi, lit)
		if x != n.Expr || lo != n.Lo || hi != n.Hi {
			return &Between{Expr: x, Lo: lo, Hi: hi}
		}
	}
	return e
}

// callNode is a call copied with up to four arguments, in one
// allocation.
type callNode struct {
	FuncCall
	args [4]Expr
}

// rewriteCall copies n, whose argument i rewrote to x, and rewrites
// the arguments after it.
func rewriteCall(n *FuncCall, i int, x Expr, lit func(*Literal) *Literal) *FuncCall {
	var args []Expr
	var cp *FuncCall
	if len(n.Args) <= len(callNode{}.args) {
		c := &callNode{FuncCall: FuncCall{Name: n.Name, Star: n.Star}}
		args, cp = c.args[:len(n.Args):len(n.Args)], &c.FuncCall
	} else {
		args, cp = make([]Expr, len(n.Args)), &FuncCall{Name: n.Name, Star: n.Star}
	}
	copy(args, n.Args[:i])
	args[i] = x
	for j := i + 1; j < len(args); j++ {
		args[j] = rewriteExpr(n.Args[j], lit)
	}
	cp.Args = args
	return cp
}

// rewriteEach applies f to each element of xs and reports whether any
// changed; xs is copied only then.
func rewriteEach[T comparable](xs []T, f func(T) T) ([]T, bool) {
	var out []T
	for i, x := range xs {
		if y := f(x); y != x {
			if out == nil {
				out = slices.Clone(xs)
			}
			out[i] = y
		}
	}
	if out == nil {
		return xs, false
	}
	return out, true
}
