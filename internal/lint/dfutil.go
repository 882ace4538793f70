package lint

import "go/ast"

// inspectShallow walks n like ast.Inspect but does not descend into
// function literals: a closure's body has its own control flow and is
// analyzed as its own function, so its statements must not leak into
// the enclosing function's dataflow facts.
//
// When n itself is a range statement it also skips the loop body: the
// CFG places the RangeStmt node in the loop header (it binds the
// iteration variables), while the body's statements live in their own
// blocks — walking into the body here would replay every statement of
// the loop against the header's fact.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	var skip ast.Node
	if rs, ok := n.(*ast.RangeStmt); ok {
		skip = rs.Body
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m != nil && m == skip {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
