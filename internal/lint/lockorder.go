package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the whole-module lock-acquisition graph and reports
// cycles as potential deadlocks. The mutex inventory spans every
// sync.Mutex/RWMutex struct field and package-level mutex in the module
// — engine catalog, buffer-pool shards, WAL append and group-commit
// locks, cluster and shard connections — the set that grows as the
// storage and cluster layers grow.
//
// Per function, a forward dataflow over the CFG computes the set of
// locks held at each statement (must-held: paths are intersected, so a
// conditionally taken lock adds no edges — the analysis prefers missing
// an edge to inventing one). Acquiring k while holding h records the
// edge h -> k. Call sites into module functions propagate transitively:
// holding h while calling a function whose transitive closure acquires
// k also records h -> k. Dynamic dispatch through interfaces is
// resolved by class-hierarchy analysis over the module's named types.
// RLock counts as Lock: reader-writer cycles still deadlock through an
// intervening writer. Self-edges are ignored — acquiring two shards of
// the same pool in sequence releases one before the other, and the
// dataflow sees that.
//
// Two different lock classes on a cycle mean two call paths can acquire
// them in opposite orders; the report carries one witness per edge.
// The deterministic graph dump behind the jackpinevet -lockgraph flag
// (LockGraph) is committed under testdata so ordering changes show up
// in review diffs.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "flag cycles in the module-wide lock-acquisition order graph " +
		"(every sync.Mutex/RWMutex field or package mutex, with " +
		"interprocedural propagation and interface call resolution): a " +
		"cycle is two code paths that can deadlock against each other",
	RunModule: runLockOrder,
}

func runLockOrder(pass *ModulePass) error {
	g := buildLockGraph(pass.Pkgs)
	for _, cyc := range g.cycles() {
		first := g.edges[edgeKey{cyc[0], cyc[1]}]
		var b strings.Builder
		fmt.Fprintf(&b, "potential deadlock: lock-order cycle %s", strings.Join(append(cyc, cyc[0]), " -> "))
		for i := range cyc {
			from, to := cyc[i], cyc[(i+1)%len(cyc)]
			w := g.edges[edgeKey{from, to}]
			fmt.Fprintf(&b, "; %s -> %s: %s", from, to, w.desc)
		}
		pass.Reportf(first.pkg, first.pos, "%s", b.String())
	}
	return nil
}

// LockGraph returns the module's lock-order edges as deterministic
// "from -> to" lines, sorted, one per ordered pair of lock classes.
func LockGraph(pkgs []*Package) []string {
	g := buildLockGraph(pkgs)
	lines := make([]string, 0, len(g.edges))
	for e := range g.edges {
		lines = append(lines, e.from+" -> "+e.to)
	}
	sort.Strings(lines)
	return lines
}

type edgeKey struct{ from, to string }

type lockWitness struct {
	pkg  *Package
	pos  token.Pos
	desc string
}

type lockGraph struct {
	edges map[edgeKey]*lockWitness
}

// funcUnit is one analyzable body: a declared function, or a function
// literal treated as an anonymous function with no held locks on entry.
type funcUnit struct {
	pkg  *Package
	name string
	fn   *types.Func // nil for literals
	body *ast.BlockStmt
}

func buildLockGraph(pkgs []*Package) *lockGraph {
	g := &lockGraph{edges: make(map[edgeKey]*lockWitness)}

	// 1. Mutex inventory: every sync mutex struct field and package var.
	lockKeys := make(map[types.Object]string)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		short := shortPkg(pkg.Path)
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if isSyncMutex(f.Type()) {
						lockKeys[f] = short + "." + obj.Name() + "." + f.Name()
					}
				}
			case *types.Var:
				if isSyncMutex(obj.Type()) {
					lockKeys[obj] = short + "." + obj.Name()
				}
			}
		}
	}
	if len(lockKeys) == 0 {
		return g
	}

	// 2. Function inventory, in deterministic order, plus the method
	// list for interface resolution.
	var units []funcUnit
	bodies := make(map[string]*funcUnit) // FullName -> unit
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				u := funcUnit{pkg: pkg, name: funcDisplayName(fn), fn: fn, body: decl.Body}
				units = append(units, u)
				bodies[fn.FullName()] = &units[len(units)-1]
				declName := u.name
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						units = append(units, funcUnit{pkg: pkg, name: declName + ".func", body: lit.Body})
					}
					return true
				})
			}
		}
	}

	resolve := newCallResolver(pkgs, bodies)

	// 3. Per-unit dataflow: held sets, direct acquisitions, call sites.
	type callSite struct {
		callees []string // FullNames
		held    []string
		pkg     *Package
		pos     token.Pos
		caller  string
	}
	acq := make(map[string]map[string]bool) // FullName -> directly acquired keys
	var calls []callSite
	for i := range units {
		u := &units[i]
		held := solveHeld(u, lockKeys)
		if u.fn != nil && acq[u.fn.FullName()] == nil {
			acq[u.fn.FullName()] = make(map[string]bool)
		}
		for _, ev := range held.acquisitions {
			if u.fn != nil {
				acq[u.fn.FullName()][ev.key] = true
			}
			for _, h := range ev.held {
				if h != ev.key {
					g.addEdge(h, ev.key, u.pkg, ev.pos, fmt.Sprintf(
						"%s acquires %s while holding %s", u.name, ev.key, h))
				}
			}
		}
		for _, ev := range held.calls {
			callees := resolve(u.pkg, ev.call)
			if len(callees) == 0 || len(ev.held) == 0 {
				continue
			}
			calls = append(calls, callSite{
				callees: callees, held: ev.held,
				pkg: u.pkg, pos: ev.pos, caller: u.name,
			})
		}
	}

	// 4. Transitive acquisition sets over the call graph.
	acqStar := transitiveAcq(bodies, resolve, acq)

	// 5. Edges from call sites: held x (transitively acquired).
	for _, cs := range calls {
		for _, callee := range cs.callees {
			for k := range acqStar[callee] {
				for _, h := range cs.held {
					if h == k {
						continue
					}
					g.addEdge(h, k, cs.pkg, cs.pos, fmt.Sprintf(
						"%s holds %s and calls %s, which acquires %s (possibly transitively)",
						cs.caller, h, displayName(callee), k))
				}
			}
		}
	}
	return g
}

func (g *lockGraph) addEdge(from, to string, pkg *Package, pos token.Pos, desc string) {
	key := edgeKey{from, to}
	if _, ok := g.edges[key]; ok {
		return // first witness wins; unit order is deterministic
	}
	g.edges[key] = &lockWitness{pkg: pkg, pos: pos, desc: desc}
}

// cycles returns every elementary lock-order cycle, one per strongly
// connected component, as a deterministic key sequence.
func (g *lockGraph) cycles() [][]string {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	sccs := stronglyConnected(nodes, adj)
	var out [][]string
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		out = append(out, cyclePath(scc, adj))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// cyclePath finds a cycle through the SCC starting at its smallest
// node, walking smallest-neighbor-first within the component.
func cyclePath(scc []string, adj map[string][]string) []string {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0]
	path := []string{start}
	onPath := map[string]bool{start: true}
	var dfs func(cur string) bool
	dfs = func(cur string) bool {
		for _, next := range adj[cur] {
			if !in[next] {
				continue
			}
			if next == start && len(path) > 1 {
				return true
			}
			if onPath[next] {
				continue
			}
			path = append(path, next)
			onPath[next] = true
			if dfs(next) {
				return true
			}
			path = path[:len(path)-1]
			delete(onPath, next)
		}
		return false
	}
	dfs(start)
	return path
}

func stronglyConnected(nodes map[string]bool, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range sortedKeys(nodes) {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heldResult is what one unit's dataflow yields.
type heldResult struct {
	acquisitions []acqEvent
	calls        []callEvent
}

type acqEvent struct {
	key  string
	held []string // sorted, excluding key
	pos  token.Pos
}

type callEvent struct {
	call *ast.CallExpr
	held []string
	pos  token.Pos
}

// heldFact is the must-held lock set; top marks unreached blocks.
type heldFact struct {
	top bool
	set map[string]bool
}

// solveHeld runs the held-set dataflow over one unit and collects
// acquisition and call events with the locks held at each.
func solveHeld(u *funcUnit, lockKeys map[types.Object]string) heldResult {
	info := u.pkg.TypesInfo
	cfg := NewCFG(u.body)
	prob := &FlowProblem{
		Boundary: heldFact{set: map[string]bool{}},
		Init:     heldFact{top: true},
		Transfer: func(n ast.Node, f Fact) Fact {
			return heldTransfer(info, lockKeys, n, f.(heldFact))
		},
		Merge: func(a, b Fact) Fact {
			x, y := a.(heldFact), b.(heldFact)
			if x.top {
				return y
			}
			if y.top {
				return x
			}
			out := map[string]bool{}
			for k := range x.set {
				if y.set[k] {
					out[k] = true
				}
			}
			return heldFact{set: out}
		},
		Equal: func(a, b Fact) bool {
			x, y := a.(heldFact), b.(heldFact)
			if x.top != y.top {
				return false
			}
			if len(x.set) != len(y.set) {
				return false
			}
			for k := range x.set {
				if !y.set[k] {
					return false
				}
			}
			return true
		},
	}
	res := Solve(cfg, prob)

	var out heldResult
	for _, b := range cfg.Blocks {
		f := res.In[b.Index].(heldFact)
		if f.top {
			continue
		}
		for _, n := range b.Nodes {
			collectLockEvents(info, lockKeys, n, f, &out)
			f = heldTransfer(info, lockKeys, n, f)
		}
	}
	return out
}

func heldTransfer(info *types.Info, lockKeys map[types.Object]string, n ast.Node, f heldFact) heldFact {
	if f.top {
		return f
	}
	out := f
	copied := false
	update := func(key string, hold bool) {
		if !copied {
			cp := make(map[string]bool, len(out.set)+1)
			for k := range out.set {
				cp[k] = true
			}
			out = heldFact{set: cp}
			copied = true
		}
		if hold {
			out.set[key] = true
		} else {
			delete(out.set, key)
		}
	}
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, ok := lockCall(info, lockKeys, call)
		if !ok {
			return true
		}
		switch op {
		case "Lock", "RLock":
			update(key, true)
		case "Unlock", "RUnlock":
			update(key, false)
		}
		return true
	})
	return out
}

// collectLockEvents records acquisitions and module call sites in n
// given the held set before it. Statements under a go statement are
// skipped: the spawned goroutine holds nothing of the caller's, and its
// body (a literal) is analyzed as its own unit.
func collectLockEvents(info *types.Info, lockKeys map[types.Object]string, n ast.Node, f heldFact, out *heldResult) {
	cur := f
	inspectShallow(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.GoStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op, ok := lockCall(info, lockKeys, call); ok {
			if op == "Lock" || op == "RLock" {
				out.acquisitions = append(out.acquisitions, acqEvent{
					key: key, held: sortedHeld(cur, key), pos: call.Pos(),
				})
			}
			// Track intra-statement ordering: mu.Lock() twice in one
			// statement is not a pattern here, but keep cur honest.
			cur = heldTransfer(info, lockKeys, m, cur)
			return true
		}
		if callee(info, call) != nil && len(cur.set) > 0 {
			out.calls = append(out.calls, callEvent{
				call: call, held: sortedHeld(cur, ""), pos: call.Pos(),
			})
		}
		return true
	})
}

func sortedHeld(f heldFact, except string) []string {
	out := make([]string, 0, len(f.set))
	for k := range f.set {
		if k != except {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// lockCall resolves a call to mu.Lock/RLock/Unlock/RUnlock on an
// inventoried mutex, returning the lock key and the operation.
func lockCall(info *types.Info, lockKeys map[types.Object]string, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if fsel, ok := info.Selections[x]; ok && fsel.Kind() == types.FieldVal {
			obj = fsel.Obj()
		} else {
			obj = info.Uses[x.Sel]
		}
	case *ast.Ident:
		obj = info.Uses[x]
	}
	if obj == nil {
		return "", "", false
	}
	key, ok := lockKeys[obj]
	return key, op, ok
}

// newCallResolver returns a function resolving a call expression to the
// FullNames of module functions it may invoke: the static callee when
// its body is in the module, or every module implementation of an
// interface method (class-hierarchy analysis).
func newCallResolver(pkgs []*Package, bodies map[string]*funcUnit) func(*Package, *ast.CallExpr) []string {
	// Methods by name for CHA, with their receiver's named type.
	type methodImpl struct {
		fullName string
		recv     *types.Named
	}
	implsByName := make(map[string][]methodImpl)
	for full, u := range bodies {
		if u.fn == nil {
			continue
		}
		sig := u.fn.Type().(*types.Signature)
		r := sig.Recv()
		if r == nil {
			continue
		}
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		implsByName[u.fn.Name()] = append(implsByName[u.fn.Name()], methodImpl{full, named})
	}
	for name := range implsByName {
		impls := implsByName[name]
		sort.Slice(impls, func(i, j int) bool { return impls[i].fullName < impls[j].fullName })
		implsByName[name] = impls
	}
	return func(pkg *Package, call *ast.CallExpr) []string {
		obj := callee(pkg.TypesInfo, call)
		fn, ok := obj.(*types.Func)
		if !ok {
			return nil
		}
		full := fn.FullName()
		if _, ok := bodies[full]; ok {
			return []string{full}
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return nil
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []string
		for _, impl := range implsByName[fn.Name()] {
			if types.Implements(impl.recv, iface) || types.Implements(types.NewPointer(impl.recv), iface) {
				out = append(out, impl.fullName)
			}
		}
		return out
	}
}

// transitiveAcq computes, for every module function, the set of lock
// keys it or anything it (transitively) calls acquires.
func transitiveAcq(bodies map[string]*funcUnit, resolve func(*Package, *ast.CallExpr) []string, acq map[string]map[string]bool) map[string]map[string]bool {
	// Call edges: every module call inside each body, go statements and
	// literals included — a literal invoked by the function can acquire
	// on the caller's path, and the over-approximation only widens
	// transitive sets, never held sets.
	edges := make(map[string][]string)
	for full, u := range bodies {
		seen := make(map[string]bool)
		ast.Inspect(u.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolve(u.pkg, call) {
				if !seen[callee] {
					seen[callee] = true
					edges[full] = append(edges[full], callee)
				}
			}
			return true
		})
	}
	star := make(map[string]map[string]bool, len(acq))
	for full, direct := range acq {
		set := make(map[string]bool, len(direct))
		for k := range direct {
			set[k] = true
		}
		star[full] = set
	}
	for changed := true; changed; {
		changed = false
		for full, callees := range edges {
			dst := star[full]
			if dst == nil {
				dst = make(map[string]bool)
				star[full] = dst
			}
			for _, c := range callees {
				for k := range star[c] {
					if !dst[k] {
						dst[k] = true
						changed = true
					}
				}
			}
		}
	}
	return star
}

// shortPkg trims a package path to its position under internal/, or to
// its last element, for readable lock keys.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "internal/"); i >= 0 {
		return path[i+len("internal/"):]
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcDisplayName renders a function for witnesses: Recv.Name or Name.
func funcDisplayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// displayName compresses a FullName like
// "(jackpine/internal/storage.*BufferPool).Pin" to "BufferPool.Pin".
func displayName(full string) string {
	if i := strings.LastIndex(full, "."); i >= 0 {
		method := full[i+1:]
		rest := full[:i]
		rest = strings.TrimSuffix(strings.TrimPrefix(rest, "("), ")")
		if j := strings.LastIndex(rest, "."); j >= 0 {
			rest = rest[j+1:]
		}
		rest = strings.TrimPrefix(rest, "*")
		if rest != "" && rest != full[:i] {
			return rest + "." + method
		}
		return method
	}
	return full
}
