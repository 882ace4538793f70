package lint

// Forward worklist dataflow over a CFG. A FlowProblem packages the
// lattice (Merge/Equal) and the per-node transfer function; Solve
// propagates facts from Entry along successor edges to a fixpoint and
// returns the fact at the entry and exit of every block. Analyzers then
// re-walk a block's nodes with the same transfer function to recover the
// fact before or after each individual statement.
//
// Facts are opaque to the solver. Transfer functions must treat facts
// as immutable (return a fresh value rather than mutating the input):
// the solver caches and compares facts across iterations, and aliasing
// a mutated map would corrupt the fixpoint.

import (
	"go/ast"
)

// Fact is an analyzer-defined lattice element.
type Fact any

// FlowProblem defines one forward dataflow analysis over a CFG.
type FlowProblem struct {
	// Boundary is the fact at Entry.
	Boundary Fact
	// Init is the initial fact for every other block, typically the
	// lattice identity for Merge (top for must-analyses, bottom for
	// may-analyses).
	Init Fact
	// Transfer computes the effect of one node; a block's nodes are
	// applied in order.
	Transfer func(n ast.Node, f Fact) Fact
	// Merge combines facts where paths join. It must be commutative,
	// associative, and monotone for the solver to terminate.
	Merge func(a, b Fact) Fact
	// Equal reports whether two facts are equal, used to detect the
	// fixpoint.
	Equal func(a, b Fact) bool
}

// FlowResult holds the solved facts: In[i] is the fact at the start of
// cfg.Blocks[i], Out[i] the fact at its end.
type FlowResult struct {
	In  []Fact
	Out []Fact
}

// Solve runs the worklist algorithm to a fixpoint.
func Solve(cfg *CFG, p *FlowProblem) *FlowResult {
	n := len(cfg.Blocks)
	res := &FlowResult{In: make([]Fact, n), Out: make([]Fact, n)}
	for i := range cfg.Blocks {
		res.In[i] = p.Init
		res.Out[i] = p.Init
	}

	// Seed the worklist in reverse postorder so most blocks settle in
	// one pass.
	order := postorder(cfg)
	reach := make([]bool, n)
	for _, b := range order {
		reach[b.Index] = true
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	// Facts only flow out of blocks reachable from Entry (reach above):
	// dead code (statements after a return, say) is still solved so
	// analyzers can walk it, but its initial-valued facts must not
	// dilute the merges of live blocks — a must-property that holds on
	// every live path has to stay a must-property.
	//
	// A predecessor whose fact has not been computed yet contributes
	// nothing to a merge either: its slot still holds Init, which is
	// only the lattice identity for some problems. Because the worklist
	// is seeded in reverse postorder, every such skipped edge is a loop
	// back edge, and the block is revisited once the edge's source
	// settles — the first merge a loop header sees is its entry fact,
	// exactly the seed a fixpoint iteration wants.
	computed := make([]bool, n)

	inWork := make([]bool, n)
	var work []*Block
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range order {
		push(b)
	}
	// Unreachable blocks still get processed once so their facts are
	// well-defined.
	for _, b := range cfg.Blocks {
		push(b)
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		in := p.Init
		if b == cfg.Entry {
			in = p.Boundary
		}
		first := true
		for _, pred := range b.Preds {
			if !reach[pred.Index] || !computed[pred.Index] {
				continue
			}
			f := res.Out[pred.Index]
			if first && b != cfg.Entry {
				in = f
				first = false
			} else {
				in = p.Merge(in, f)
			}
		}
		res.In[b.Index] = in
		out := in
		for _, node := range b.Nodes {
			out = p.Transfer(node, out)
		}
		if first := !computed[b.Index]; first || !p.Equal(out, res.Out[b.Index]) {
			computed[b.Index] = true
			for _, s := range b.Succs {
				push(s)
			}
		}
		res.Out[b.Index] = out
	}
	return res
}

// postorder returns the blocks reachable from Entry in DFS postorder.
func postorder(cfg *CFG) []*Block {
	seen := make([]bool, len(cfg.Blocks))
	var out []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		out = append(out, b)
	}
	visit(cfg.Entry)
	return out
}
