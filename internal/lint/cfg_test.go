package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// parseBody parses a function body from a snippet of statements.
func parseBody(t *testing.T, stmts string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + stmts + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// reachable walks the CFG from entry and returns the set of block
// indices visited.
func reachable(cfg *CFG) map[int]bool {
	seen := map[int]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(cfg.Entry)
	return seen
}

// callsInOrder runs a forward gen-set analysis that accumulates the
// names of called functions, and returns the sorted set reaching exit.
// It exercises Solve end to end: merge at joins is set union.
func callsReachingExit(cfg *CFG) []string {
	type set = map[string]bool
	prob := &FlowProblem{
		Boundary: set{},
		Init:     set{},
		Transfer: func(n ast.Node, f Fact) Fact {
			out := set{}
			for k := range f.(set) {
				out[k] = true
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
				return true
			})
			return out
		},
		Merge: func(a, b Fact) Fact {
			out := set{}
			for k := range a.(set) {
				out[k] = true
			}
			for k := range b.(set) {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b Fact) bool {
			x, y := a.(set), b.(set)
			if len(x) != len(y) {
				return false
			}
			for k := range x {
				if !y[k] {
					return false
				}
			}
			return true
		},
	}
	res := Solve(cfg, prob)
	var names []string
	for k := range res.In[cfg.Exit.Index].(map[string]bool) {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func TestCFGStraightLine(t *testing.T) {
	cfg := NewCFG(parseBody(t, "a(); b(); c()"))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[a b c]" {
		t.Errorf("calls reaching exit = %v, want [a b c]", got)
	}
	if len(cfg.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(cfg.Entry.Nodes))
	}
}

func TestCFGBranch(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		if cond() {
			a()
		} else {
			b()
		}
		c()`))
	// Entry must end in a two-way branch on the condition.
	n := cfg.Entry.Nodes
	if len(n) == 0 {
		t.Fatal("entry block is empty")
	}
	if cond, ok := n[len(n)-1].(ast.Expr); !ok || nodeString(&ast.ExprStmt{X: cond}) != "cond" {
		t.Fatal("entry block does not end in the condition")
	}
	if len(cfg.Entry.Succs) != 2 {
		t.Fatalf("branch block has %d successors, want 2", len(cfg.Entry.Succs))
	}
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[a b c cond]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGBranchNoElse(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		if cond() {
			a()
		}
		c()`))
	// The false edge (Succs[1]) must skip a().
	head := cfg.Entry
	if len(head.Succs) != 2 {
		t.Fatalf("branch block has %d successors, want 2", len(head.Succs))
	}
	trueBlk, falseBlk := head.Succs[0], head.Succs[1]
	if len(trueBlk.Nodes) == 0 || nodeString(trueBlk.Nodes[0]) != "a" {
		t.Error("true edge does not lead to the a() body")
	}
	if falseBlk == trueBlk {
		t.Error("true and false edges lead to the same block")
	}
	for _, n := range falseBlk.Nodes {
		if nodeString(n) == "a" {
			t.Error("false edge runs the then-body")
		}
	}
}

func TestCFGLoop(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		for i := 0; i < n; i++ {
			body()
		}
		after()`))
	// The loop must contain a back edge: some block's successor has a
	// smaller index on a cycle. Check via reachability of the header
	// from the body.
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after body]" {
		t.Errorf("calls reaching exit = %v", got)
	}
	// A conditional header exists: it ends in the loop condition.
	var header *Block
	for _, b := range cfg.Blocks {
		if n := b.Nodes; len(n) > 0 {
			if be, ok := n[len(n)-1].(*ast.BinaryExpr); ok && be.Op == token.LSS {
				header = b
			}
		}
	}
	if header == nil {
		t.Fatal("no conditional header block in loop CFG")
	}
	// The body path must loop back to the header.
	seen := map[int]bool{}
	var loops func(b *Block) bool
	loops = func(b *Block) bool {
		if b == header {
			return true
		}
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			if loops(s) {
				return true
			}
		}
		return false
	}
	if !loops(header.Succs[0]) {
		t.Error("loop body does not reach back to the header")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		for _, v := range xs {
			use(v)
			if bad(v) {
				continue
			}
			tail(v)
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after bad tail use]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGBreak(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		for {
			if done() {
				break
			}
			body()
		}
		after()`))
	// after() must be reachable (break escapes the infinite loop).
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after body done]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
	outer:
		for {
			for {
				if done() {
					break outer
				}
				inner()
			}
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after done inner]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		if err := try(); err != nil {
			return
		}
		after()`))
	// Both the early return and the fallthrough end must reach exit, so
	// exit has at least two predecessors and after() reaches it on the
	// success path only.
	if len(cfg.Exit.Preds) < 2 {
		t.Errorf("exit has %d preds, want >= 2 (early return + fallthrough)", len(cfg.Exit.Preds))
	}
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after try]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGReturnUnreachableTail(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		return
		dead()`))
	// dead() sits in a block with no predecessors.
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(nodeString(n), "dead") && len(b.Preds) != 0 {
				t.Errorf("unreachable statement's block has %d preds, want 0", len(b.Preds))
			}
		}
	}
}

func nodeString(n ast.Node) string {
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// deferredBlocks returns the blocks holding any of the function's
// deferred calls, found by the call expressions themselves.
func deferredBlocks(cfg *CFG) []*Block {
	calls := map[ast.Node]bool{}
	for _, d := range cfg.Defers {
		calls[d.Call] = true
	}
	var out []*Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if calls[n] {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

func TestCFGDefer(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		defer cleanup()
		if err := try(); err != nil {
			return
		}
		work()`))
	if len(cfg.Defers) != 1 {
		t.Fatalf("got %d defers, want 1", len(cfg.Defers))
	}
	// A single block holds the deferred call, and every exit path flows
	// through it.
	defs := deferredBlocks(cfg)
	if len(defs) != 1 {
		t.Fatalf("deferred call in %d blocks, want 1", len(defs))
	}
	def := defs[0]
	if len(cfg.Exit.Preds) != 1 || cfg.Exit.Preds[0] != def {
		t.Error("exit is not dominated by the deferred block")
	}
	// cleanup() is therefore seen on every path, including the early
	// error return.
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[cleanup try work]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGDeferReverseOrder(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		defer first()
		defer second()
		work()`))
	defs := deferredBlocks(cfg)
	if len(defs) != 1 || len(defs[0].Nodes) != 2 {
		t.Fatalf("deferred calls in %d blocks, want both in one block of 2 nodes", len(defs))
	}
	def := defs[0]
	// LIFO: second() runs before first().
	c0 := def.Nodes[0].(*ast.CallExpr).Fun.(*ast.Ident).Name
	c1 := def.Nodes[1].(*ast.CallExpr).Fun.(*ast.Ident).Name
	if c0 != "second" || c1 != "first" {
		t.Errorf("deferred calls in order [%s %s], want [second first]", c0, c1)
	}
}

func TestCFGPanicPath(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		defer cleanup()
		if bad() {
			panic("boom")
		}
		work()`))
	// The panic edge must route through the deferred block: cleanup()
	// reaches exit even on the panic path. Verify by checking that the
	// panic block's successor chain hits the deferred block.
	var panicBlk, def *Block
	if defs := deferredBlocks(cfg); len(defs) == 1 {
		def = defs[0]
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panicBlk = b
					}
				}
			}
		}
	}
	if panicBlk == nil || def == nil {
		t.Fatal("panic or deferred block not found")
	}
	found := false
	for _, s := range panicBlk.Succs {
		if s == def {
			found = true
		}
	}
	if !found {
		t.Error("panic block does not edge to the deferred block")
	}
}

func TestCFGSwitch(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		switch tag() {
		case 1:
			a()
		case 2:
			b()
			fallthrough
		case 3:
			c()
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[a after b c tag]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGSwitchNoDefaultSkips(t *testing.T) {
	// Without a default clause, control can skip all cases.
	cfg := NewCFG(parseBody(t, `
		switch tag() {
		case 1:
			a()
		}
		after()`))
	// Find the path from entry to exit avoiding a(): must exist.
	var hasSkip func(b *Block, seen map[int]bool) bool
	hasSkip = func(b *Block, seen map[int]bool) bool {
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, n := range b.Nodes {
			if nodeString(n) == "a" {
				return false
			}
		}
		if b == cfg.Exit {
			return true
		}
		for _, s := range b.Succs {
			if hasSkip(s, seen) {
				return true
			}
		}
		return false
	}
	if !hasSkip(cfg.Entry, map[int]bool{}) {
		t.Error("no path skipping the case body; switch without default must have one")
	}
}

func TestCFGTypeSwitch(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		switch v := x.(type) {
		case int:
			a(v)
		default:
			b(v)
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[a after b]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGSelect(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		select {
		case v := <-ch:
			a(v)
		default:
			b()
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[a after b]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}

func TestCFGGoto(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		i := 0
	again:
		i++
		if i < 3 {
			goto again
		}
		after()`))
	if got := callsReachingExit(cfg); fmt.Sprint(got) != "[after]" {
		t.Errorf("calls reaching exit = %v", got)
	}
	// The goto creates a cycle: some reachable block must have a
	// predecessor with a larger index.
	hasBack := false
	for _, b := range cfg.Blocks {
		for _, p := range b.Preds {
			if p.Index > b.Index {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Error("goto did not create a back edge")
	}
}

// TestSolveLoopFixpoint checks termination and correctness on a loop
// where a fact generated inside the body must propagate around the back
// edge to the header.
func TestSolveLoopFixpoint(t *testing.T) {
	cfg := NewCFG(parseBody(t, `
		for i := 0; i < n; i++ {
			gen()
		}
		after()`))
	got := callsReachingExit(cfg)
	if fmt.Sprint(got) != "[after gen]" {
		t.Errorf("calls reaching exit = %v", got)
	}
}
