package lint

// Control-flow graphs for analyzer dataflow. Per-node AST matching cannot
// tell which locks are held at a call or an acquisition — that is a
// property of every path reaching it, not of the node — so lockorder
// needs a CFG. NewCFG lowers one function body into basic blocks with
// branch, loop, defer and return edges, at statement granularity, using
// nothing but go/ast; dataflow.go then runs a forward worklist solver
// over it.
//
// The model is deliberately small and documents its approximations:
//
//   - Defers are lexical, not dynamic: every deferred call is placed in a
//     single synthetic block (calls in reverse source order) that every
//     function exit flows through, regardless of whether the defer
//     statement had executed on that path.
//   - Explicit panic(...) statements edge to the deferred block and then
//     to exit, so "cleanup runs on panic paths via defer" is visible.
//     Implicit runtime panics (nil derefs, index errors) are not modeled.
//   - goto is supported; unreachable code after a return keeps its own
//     block with no predecessors, so solvers see it with the initial
//     fact and analyzers report nothing meaningful inside it.

import (
	"go/ast"
)

// Block is one basic block: statements that execute straight-line,
// followed by zero or more successor edges.
type Block struct {
	Index int
	// Nodes holds the block's statements in execution order. A block
	// that branches on an if or for condition carries the condition
	// expression as its final node; Succs[0] is then the true edge and
	// Succs[1] the false edge.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block // synthetic: no nodes, no successors
	// Defers lists the function's defer statements in source order.
	Defers []*ast.DeferStmt
}

// cfgBuilder holds the construction state.
type cfgBuilder struct {
	cfg     *CFG
	current *Block
	// Loop/switch context for break and continue, innermost last.
	breaks    []branchTarget
	continues []branchTarget
	// fallthroughNext is the next case-clause block inside a switch.
	fallthroughNext *Block
	labels          map[string]*Block
	gotos           map[string][]*Block // pending goto edges by label
	// exits collects blocks ending in return or panic; they are routed
	// through the deferred block (if any) to the exit at the end.
	exits []*Block
}

type branchTarget struct {
	label string
	block *Block
}

// NewCFG builds the control-flow graph of a function body (a FuncDecl's
// or FuncLit's Body).
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
		gotos:  make(map[string][]*Block),
	}
	entry := b.newBlock()
	b.cfg.Entry = entry
	b.current = entry
	b.stmtList(body.List)
	// Fallthrough off the end of the body exits the function — but only
	// when the end is reachable. A function whose last statement returns
	// leaves an empty unreachable continuation as the current block;
	// routing it to exit would merge the initial fact into the exit
	// fact and dilute every must-property (a definite leak would read
	// as a maybe-leak).
	if b.current == entry || len(b.current.Preds) > 0 {
		b.exits = append(b.exits, b.current)
	}

	// Unresolved gotos (labels in broken or unparsed code): route to
	// exit so the graph stays connected.
	for _, pend := range b.gotos {
		b.exits = append(b.exits, pend...)
	}

	// Exit plumbing: every exit path converges on the deferred block
	// (when the function has defers) and then the exit block.
	if len(b.cfg.Defers) > 0 {
		def := b.newBlock()
		for i := len(b.cfg.Defers) - 1; i >= 0; i-- {
			def.Nodes = append(def.Nodes, b.cfg.Defers[i].Call)
		}
		exit := b.newBlock()
		b.cfg.Exit = exit
		b.addEdge(def, exit)
		for _, blk := range b.exits {
			b.addEdge(blk, def)
		}
	} else {
		exit := b.newBlock()
		b.cfg.Exit = exit
		for _, blk := range b.exits {
			b.addEdge(blk, exit)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.current.Nodes = append(b.current.Nodes, s.Init)
		}
		b.current.Nodes = append(b.current.Nodes, s.Cond)
		head := b.current
		join := b.newBlock()

		then := b.newBlock()
		b.addEdge(head, then) // true edge: Succs[0]
		b.current = then
		b.stmtList(s.Body.List)
		b.addEdge(b.current, join)

		if s.Else != nil {
			els := b.newBlock()
			b.addEdge(head, els) // false edge: Succs[1]
			b.current = els
			b.stmt(s.Else)
			b.addEdge(b.current, join)
		} else {
			b.addEdge(head, join) // false edge: Succs[1]
		}
		b.current = join

	case *ast.ForStmt:
		b.loop(s, "")

	case *ast.RangeStmt:
		b.rangeLoop(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.LabeledStmt:
		// Start a fresh block so gotos can land on the label.
		lbl := b.newBlock()
		b.addEdge(b.current, lbl)
		b.current = lbl
		b.labels[s.Label.Name] = lbl
		for _, from := range b.gotos[s.Label.Name] {
			b.addEdge(from, lbl)
		}
		delete(b.gotos, s.Label.Name)
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.loop(inner, s.Label.Name)
		case *ast.RangeStmt:
			b.rangeLoop(inner, s.Label.Name)
		case *ast.SwitchStmt:
			b.switchStmt(inner, s.Label.Name)
		case *ast.TypeSwitchStmt:
			b.typeSwitchStmt(inner, s.Label.Name)
		case *ast.SelectStmt:
			b.selectStmt(inner, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ReturnStmt:
		b.current.Nodes = append(b.current.Nodes, s)
		b.exits = append(b.exits, b.current)
		b.current = b.newBlock() // unreachable continuation

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		// The call itself is modeled in the deferred block, not here.

	case *ast.ExprStmt:
		b.current.Nodes = append(b.current.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.exits = append(b.exits, b.current)
				b.current = b.newBlock()
			}
		}

	default:
		// Assignments, declarations, sends, go statements, inc/dec,
		// empty statements: straight-line nodes.
		if s != nil {
			b.current.Nodes = append(b.current.Nodes, s)
		}
	}
}

// loop lowers a for statement: init -> header(cond) -> body -> post ->
// header, with break to the join and continue to the post block.
func (b *cfgBuilder) loop(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.current.Nodes = append(b.current.Nodes, s.Init)
	}
	header := b.newBlock()
	b.addEdge(b.current, header)
	join := b.newBlock()
	body := b.newBlock()
	if s.Cond != nil {
		header.Nodes = append(header.Nodes, s.Cond)
		b.addEdge(header, body) // true edge
		b.addEdge(header, join) // false edge
	} else {
		b.addEdge(header, body)
	}

	post := header
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.addEdge(post, header)
	}
	b.pushLoop(label, join, post)
	b.current = body
	b.stmtList(s.Body.List)
	b.addEdge(b.current, post)
	b.popLoop()
	b.current = join
}

// rangeLoop lowers a range statement. The RangeStmt node itself is the
// header's node (it binds the iteration variables); the header has a
// body edge and a done edge.
func (b *cfgBuilder) rangeLoop(s *ast.RangeStmt, label string) {
	header := b.newBlock()
	header.Nodes = append(header.Nodes, s)
	b.addEdge(b.current, header)
	join := b.newBlock()
	body := b.newBlock()
	b.addEdge(header, body)
	b.addEdge(header, join)

	b.pushLoop(label, join, header)
	b.current = body
	b.stmtList(s.Body.List)
	b.addEdge(b.current, header)
	b.popLoop()
	b.current = join
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.current.Nodes = append(b.current.Nodes, s.Init)
	}
	if s.Tag != nil {
		b.current.Nodes = append(b.current.Nodes, s.Tag)
	}
	head := b.current
	join := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: join})

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		for _, e := range c.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		if c.List == nil {
			hasDefault = true
		}
		b.addEdge(head, blocks[i])
	}
	if !hasDefault {
		b.addEdge(head, join)
	}
	savedFT := b.fallthroughNext
	for i, c := range clauses {
		b.current = blocks[i]
		b.fallthroughNext = nil
		if i+1 < len(blocks) {
			b.fallthroughNext = blocks[i+1]
		}
		b.stmtList(c.Body)
		b.addEdge(b.current, join)
	}
	b.fallthroughNext = savedFT
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.current = join
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.current.Nodes = append(b.current.Nodes, s.Init)
	}
	b.current.Nodes = append(b.current.Nodes, s.Assign)
	head := b.current
	join := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: join})

	hasDefault := false
	var blocks []*Block
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		b.addEdge(head, blk)
		blocks = append(blocks, blk)
	}
	if !hasDefault {
		b.addEdge(head, join)
	}
	for i, c := range clauses {
		b.current = blocks[i]
		b.stmtList(c.Body)
		b.addEdge(b.current, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.current = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.current
	join := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label: label, block: join})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.addEdge(head, blk)
		b.current = blk
		b.stmtList(cc.Body)
		b.addEdge(b.current, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.current = join
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.breaks) - 1; i >= 0; i-- {
			if label == "" || b.breaks[i].label == label {
				b.addEdge(b.current, b.breaks[i].block)
				break
			}
		}
		b.current = b.newBlock()
	case "continue":
		for i := len(b.continues) - 1; i >= 0; i-- {
			if label == "" || b.continues[i].label == label {
				b.addEdge(b.current, b.continues[i].block)
				break
			}
		}
		b.current = b.newBlock()
	case "goto":
		if tgt, ok := b.labels[label]; ok {
			b.addEdge(b.current, tgt)
		} else {
			b.gotos[label] = append(b.gotos[label], b.current)
		}
		b.current = b.newBlock()
	case "fallthrough":
		if b.fallthroughNext != nil {
			b.addEdge(b.current, b.fallthroughNext)
		}
		b.current = b.newBlock()
	}
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	b.continues = append(b.continues, branchTarget{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}
