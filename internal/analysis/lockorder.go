package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"nestedsg/internal/graph"
)

// LockOrder detects potential deadlocks by cycle detection on the global
// lock-order graph — the same construction the certifier applies to
// transactions (Theorem 8/19's "serialisable iff the serialization graph
// is acyclic"), applied to the implementation's own mutexes.
//
// During each package pass the lock-set engine records every nested
// acquisition (mutex B taken while mutex A is held) as a directed edge
// A→B, keyed by declaration site ("internal/server.Server.mu") rather
// than instance, plus a call summary per function. After all packages
// are analyzed, Finish closes the summaries transitively — a call made
// while holding A contributes edges from A to everything the callee may
// acquire — and reports every strongly connected component of the
// resulting graph as a potential deadlock.
//
// The propagation follows static calls only: interface dispatch and
// function values are not resolved, and closures launched by go
// statements do not inherit (or contribute to) the spawner's held set.
// Those are under-approximations; the graph can miss an edge but every
// reported edge corresponds to a real nesting in the source.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "nested mutex acquisitions must form an acyclic lock-order graph",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

// lockOrderFacts is the cross-package accumulator stored in the
// FactStore slot of LockOrder.
type lockOrderFacts struct {
	// edges are direct nested acquisitions: held-lock → acquired-lock.
	edges map[[2]string]lockEdgeInfo
	// fns summarizes each first-party function: locks it directly
	// acquires and static calls it makes (with the locks held at the
	// call site).
	fns map[string]*fnLockFact
}

type lockEdgeInfo struct {
	pos  token.Position
	note string
}

type fnLockFact struct {
	acquires map[string]token.Position
	calls    []lockCallFact
}

type lockCallFact struct {
	callee string
	held   []string
	pos    token.Position
}

func lockOrderFactsOf(store *FactStore) *lockOrderFacts {
	if f, ok := store.Get("lockorder").(*lockOrderFacts); ok {
		return f
	}
	f := &lockOrderFacts{
		edges: make(map[[2]string]lockEdgeInfo),
		fns:   make(map[string]*fnLockFact),
	}
	store.Set("lockorder", f)
	return f
}

func (lf *lockOrderFacts) fn(key string) *fnLockFact {
	f, ok := lf.fns[key]
	if !ok {
		f = &fnLockFact{acquires: make(map[string]token.Position)}
		lf.fns[key] = f
	}
	return f
}

func (lf *lockOrderFacts) addEdge(from, to string, pos token.Position, note string) {
	k := [2]string{from, to}
	if _, ok := lf.edges[k]; !ok {
		lf.edges[k] = lockEdgeInfo{pos: pos, note: note}
	}
}

func runLockOrder(pass *Pass) error {
	lf := lockOrderFactsOf(pass.Facts)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnObj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fnObj == nil {
				continue
			}
			fact := lf.fn(funcKeyOf(pass, fnObj))
			seed := make(heldSet)
			if arg, ok := annotationArg(fd.Doc, "holds"); ok {
				scope := pass.TypesInfo.Scopes[fd.Type]
				seed, _ = parseHolds(pass, scope, fd.Body.Pos(), arg) // lockguard reports the problems
			}
			walkLockFunc(pass, file, fd.Body, seed, lockVisitor{
				acquire: func(op lockOp, held heldSet, async bool) {
					pos := pass.Fset.Position(op.pos)
					for _, h := range held {
						lf.addEdge(h.typeKey, op.typeKey, pos, "")
					}
					if !async {
						if _, ok := fact.acquires[op.typeKey]; !ok {
							fact.acquires[op.typeKey] = pos
						}
					}
				},
				call: func(call *ast.CallExpr, held heldSet, async bool) {
					if async {
						return // a go-routine does not run under the caller's locks
					}
					callee := calleeFunc(pass, call)
					if callee == nil || callee.Pkg() == nil || !pass.InModule(callee.Pkg().Path()) {
						return
					}
					fact.calls = append(fact.calls, lockCallFact{
						callee: funcKeyOf(pass, callee),
						held:   heldTypeKeys(held),
						pos:    pass.Fset.Position(call.Pos()),
					})
				},
			})
		}
	}
	return nil
}

// funcKeyOf names a function for the call summaries:
// "internal/server.Server.withObj" or "internal/core.Check".
func funcKeyOf(pass *Pass, fn *types.Func) string {
	key := relPkg(pass, fn.Pkg())
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return key + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return key + "." + fn.Name()
}

func heldTypeKeys(held heldSet) []string {
	out := make([]string, 0, len(held))
	for _, h := range held {
		out = append(out, h.typeKey)
	}
	sort.Strings(out)
	return out
}

// resolveEdges closes the call summaries into the full edge set: the
// direct edges plus, for every call made with locks held, edges from
// each held lock to everything the callee may transitively acquire.
func (lf *lockOrderFacts) resolveEdges() map[[2]string]lockEdgeInfo {
	// Fixpoint of may-acquire over the static call graph.
	acq := make(map[string]map[string]bool, len(lf.fns))
	for key, fact := range lf.fns {
		s := make(map[string]bool, len(fact.acquires))
		for tk := range fact.acquires {
			s[tk] = true
		}
		acq[key] = s
	}
	for changed := true; changed; {
		changed = false
		for key, fact := range lf.fns {
			s := acq[key]
			for _, c := range fact.calls {
				for tk := range acq[c.callee] {
					if !s[tk] {
						s[tk] = true
						changed = true
					}
				}
			}
		}
	}

	edges := make(map[[2]string]lockEdgeInfo, len(lf.edges))
	for k, v := range lf.edges {
		edges[k] = v
	}
	for _, fact := range lf.fns {
		for _, c := range fact.calls {
			if len(c.held) == 0 {
				continue
			}
			for tk := range acq[c.callee] {
				for _, h := range c.held {
					k := [2]string{h, tk}
					if _, ok := edges[k]; !ok {
						edges[k] = lockEdgeInfo{pos: c.pos, note: "via call to " + c.callee}
					}
				}
			}
		}
	}
	return edges
}

// finishLockOrder reports each strongly connected component of the
// resolved graph (of size > 1, or a self-loop) as a potential deadlock.
// The locks are numbered in name order and each one's edges laid out in
// name order, so graph.Search.Components finds the components in the order
// the recursive Tarjan over sorted names did.
func finishLockOrder(store *FactStore, report func(token.Position, string)) error {
	lf, ok := store.Get("lockorder").(*lockOrderFacts)
	if !ok {
		return nil
	}
	edges := lf.resolveEdges()
	keys := sortedEdges(edges)
	adj := make(map[string][]string)
	var names []string
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
		names = append(names, k[0], k[1])
	}
	sort.Strings(names)
	names = slices.Compact(names)
	g := graph.CSR{Off: make([]int32, len(names)+1), To: make([]int32, len(keys))}
	for i, k := range keys {
		g.Off[sort.SearchStrings(names, k[0])+1]++
		g.To[i] = int32(sort.SearchStrings(names, k[1]))
	}
	for v := range names {
		g.Off[v+1] += g.Off[v]
	}
	var search graph.Search
	comp, count := search.Components(g)
	sccs := make([][]string, count)
	for v, c := range comp {
		sccs[c] = append(sccs[c], names[v])
	}
	for _, scc := range sccs {
		if len(scc) == 1 {
			self := [2]string{scc[0], scc[0]}
			if _, ok := edges[self]; !ok {
				continue
			}
		}
		cycle := cyclePath(scc, adj)
		var b strings.Builder
		b.WriteString("lock-order cycle (potential deadlock): ")
		b.WriteString(strings.Join(cycle, " -> "))
		first := edges[[2]string{cycle[0], cycle[1]}]
		if first.note != "" {
			b.WriteString(" (" + first.note + ")")
		}
		report(first.pos, b.String())
	}
	return nil
}

// sortedEdges returns the keys of edges sorted by (held, acquired).
func sortedEdges(edges map[[2]string]lockEdgeInfo) [][2]string {
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// cyclePath walks a concrete cycle within one SCC starting from its
// smallest node, for a readable diagnostic: ["a", "b", "a"].
func cyclePath(scc []string, adj map[string][]string) []string {
	inSCC := make(map[string]bool, len(scc))
	for _, n := range scc {
		inSCC[n] = true
	}
	start := scc[0]
	path := []string{start}
	seen := map[string]bool{start: true}
	cur := start
	for {
		next := ""
		for _, n := range adj[cur] {
			if n == start && len(path) > 1 {
				return append(path, start)
			}
			if inSCC[n] && !seen[n] && next == "" {
				next = n
			}
		}
		if next == "" {
			// Self-loop or exhausted: close the cycle directly.
			return append(path, start)
		}
		seen[next] = true
		path = append(path, next)
		cur = next
	}
}

// LockOrderDOT runs the lock-order collection over already-loaded
// packages and renders the global nested-acquisition graph as Graphviz
// DOT. Edges are deduplicated and sorted so the output is stable enough
// to commit (DESIGN.md §11 embeds it); `make lockreport` is the driver.
func LockOrderDOT(pkgs []*Package) (string, error) {
	store := NewFactStore()
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer:  LockOrder,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Module:    pkg.Module,
			Dir:       pkg.Dir,
			Facts:     store,
			report:    func(Diagnostic) {},
		}
		if err := LockOrder.Run(pass); err != nil {
			return "", fmt.Errorf("analysis: lockorder on %s: %w", pkg.PkgPath, err)
		}
	}
	keys := sortedEdges(lockOrderFactsOf(store).resolveEdges())
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %q -> %q;\n", k[0], k[1])
	}
	b.WriteString("}\n")
	return b.String(), nil
}
