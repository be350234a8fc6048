// Package core implements the paper's contribution: the serialization graph
// construction for nested transactions (§4) and its generalization to
// arbitrary data types (§6.1), together with a checker for the main theorem
// (Theorem 8 / Theorem 19): a finite simple behavior with appropriate
// return values and an acyclic serialization graph is serially correct for
// T0.
//
// The construction takes a recorded behavior β (a sequence of serial
// actions) and produces SG(β), the union of one directed graph SG(β, T) per
// transaction T visible to T0 in β. The nodes of SG(β, T) are children of
// T; there is an edge T' → T” when (T', T”) ∈ precedes(β) ∪ conflict(β):
//
//   - conflict(β): a descendant access of T” requested commit after a
//     conflicting descendant access of T' did, both visible to T0 (§4);
//     for read/write objects two accesses conflict unless both are reads,
//     and in general they conflict when they fail to commute backward
//     (§6.1) — this package takes the relation from each object's Spec, so
//     the same code implements both constructions. Here too the graph
//     stores a generating set: a pair separated by an operation that
//     conflicts with everything is implied through it (see
//     conflictFrontier).
//   - precedes(β): the parent saw a report for T' before requesting the
//     creation of T” (external consistency, §4). The graph stores a
//     generating set of this relation, not every pair: a request takes
//     edges only from the maximal reported siblings (see frontier), which
//     leaves the transitive closure — hence the acyclicity verdict, the
//     validity of a cycle certificate and the derived order R — unchanged
//     while a life of n sequential siblings costs n−1 edges, not n(n−1)/2.
//
// Acyclicity is certified: the checker returns the sibling order R obtained
// by topologically sorting each SG(β, T) and the per-object views
// view(β, T0, R, X), which internal/serial replays into an explicit serial
// witness γ with γ|T0 = β|T0.
//
// There is one construction: Incremental consumes the behavior event by
// event, and the batch entry points feed it everything and freeze the
// result. The Checker type pools that engine so repeated constructions over
// one system type amortize to near-zero steady-state allocations; the free
// functions Build/Check/... are one-shot wrappers.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/tname"
)

// EdgeKind labels why an edge is present in a serialization graph.
type EdgeKind uint8

// Edge kinds; an edge may carry both labels.
const (
	EdgeConflict EdgeKind = 1 << iota
	EdgePrecedes
)

// String renders the label set.
func (k EdgeKind) String() string {
	var parts []string
	if k&EdgeConflict != 0 {
		parts = append(parts, "conflict")
	}
	if k&EdgePrecedes != 0 {
		parts = append(parts, "precedes")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Edge is one labeled edge of a ParentGraph over canonical child indices:
// Children[From] → Children[To].
type Edge struct {
	From, To int32
	Kind     EdgeKind
}

// ParentGraph is SG(β, T) for one transaction T visible to T0: the directed
// graph on the children of T induced by conflict(β) ∪ precedes(β).
//
// The representation is dense: children are numbered canonically
// (ascending by name), and the labeled edge set is sorted by (From, To), so
// a node's out-edges are one run of it. Both are spans of the owning SG's
// flat arrays — no maps and no per-graph allocation, so a recycled SG
// refills without allocating.
type ParentGraph struct {
	// Parent is T.
	Parent tname.TxID
	// Children maps node index to child transaction name, sorted ascending
	// — the canonical numbering. Only children that occur in the behavior
	// are materialized; the paper's graph has a node per (possibly
	// never-invoked) child, but isolated nodes affect neither acyclicity
	// nor the derived order.
	Children []tname.TxID

	// edges is the canonical merged edge set, sorted by (From, To).
	edges []Edge
}

// Edges returns the labeled edge set over canonical child indices, sorted
// by (From, To). The slice is owned by the graph; callers must not modify
// it.
func (pg *ParentGraph) Edges() []Edge { return pg.edges }

// nodeIndex returns t's canonical node index, or -1.
func (pg *ParentGraph) nodeIndex(t tname.TxID) int {
	if i, ok := slices.BinarySearch(pg.Children, t); ok {
		return i
	}
	return -1
}

// kindAt returns the labels of the edge f→t (0 if absent).
func (pg *ParentGraph) kindAt(f, t int32) EdgeKind {
	i, ok := slices.BinarySearchFunc(pg.edges, Edge{From: f, To: t}, compareEdges)
	if !ok {
		return 0
	}
	return pg.edges[i].Kind
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	if a.From != b.From {
		return int(a.From) - int(b.From)
	}
	return int(a.To) - int(b.To)
}

// HasEdge reports whether the edge from→to is present, with its labels.
func (pg *ParentGraph) HasEdge(from, to tname.TxID) (EdgeKind, bool) {
	f := pg.nodeIndex(from)
	t := pg.nodeIndex(to)
	if f < 0 || t < 0 {
		return 0, false
	}
	k := pg.kindAt(int32(f), int32(t))
	return k, k != 0
}

// freezeScratch is the reusable working memory of sgRecords.freeze and of
// Incremental.freeze's placement of the visible operations.
type freezeScratch struct {
	at, next, count, perm []int32
	seen                  []uint64
	below                 []int32
}

// sameAs reports whether pg and o have the same parent, the same children
// and the same edges.
func (pg *ParentGraph) sameAs(o *ParentGraph) bool {
	return pg.Parent == o.Parent && slices.Equal(pg.Children, o.Children) && slices.Equal(pg.edges, o.edges)
}

// SG is the serialization graph SG(β): the union of the disjoint graphs
// SG(β, T) over transactions T visible to T0 in β.
type SG struct {
	tr *tname.Tree
	// parents holds the materialized per-parent graphs in ascending parent
	// order; their children and edges are spans of kids and edges (CSR
	// form).
	parents []ParentGraph
	kids    []tname.TxID
	edges   []Edge
	// VisibleOps is operations(visible(β, T0)) in β order; reused by the
	// view computation.
	VisibleOps []event.AccessOp
}

// Parents returns the per-parent graphs, keyed by parent name. The map is
// a fresh copy on every call — mutating it cannot corrupt the checker's
// state. Iteration-heavy callers should prefer ForEachParent, which walks
// the graphs in ascending parent order without allocating.
func (sg *SG) Parents() map[tname.TxID]*ParentGraph {
	out := make(map[tname.TxID]*ParentGraph, len(sg.parents))
	for i := range sg.parents {
		out[sg.parents[i].Parent] = &sg.parents[i]
	}
	return out
}

// ForEachParent calls f for every materialized SG(β, T) in ascending parent
// order.
func (sg *SG) ForEachParent(f func(parent tname.TxID, pg *ParentGraph)) {
	for i := range sg.parents {
		f(sg.parents[i].Parent, &sg.parents[i])
	}
}

// NumParents returns the number of materialized parent graphs.
func (sg *SG) NumParents() int { return len(sg.parents) }

// Parent returns SG(β, T), or nil if T contributed no edges.
func (sg *SG) Parent(t tname.TxID) *ParentGraph {
	i, ok := slices.BinarySearchFunc(sg.parents, t, func(pg ParentGraph, t tname.TxID) int {
		return int(pg.Parent) - int(t)
	})
	if !ok {
		return nil
	}
	return &sg.parents[i]
}

// NumEdges returns the total number of distinct edges in SG(β).
func (sg *SG) NumEdges() int {
	n := 0
	for i := range sg.parents {
		n += len(sg.parents[i].edges)
	}
	return n
}

// Equal reports whether sg and o are the same graph: the same parents, each
// with the same children and the same labelled edges. It is stricter than
// comparing DOT renderings, which do not show edge kinds.
func (sg *SG) Equal(o *SG) bool {
	return slices.EqualFunc(sg.parents, o.parents, func(a, b ParentGraph) bool { return a.sameAs(&b) })
}

// Build constructs SG(β) from the serial actions of b. Inform events are
// ignored, so callers may pass generic behaviors directly. It streams b
// through the one engine (Incremental) and freezes the result, so the graph
// is the one an online certifier holds after the same events.
//
// The graph stores generating sets of the paper's two relations, chosen so
// that acyclicity, the shortest cyclic prefix and the topological orders
// are the paper's (THEORY.md): a request takes precedes edges from the
// maximal reported siblings only (frontier; benchmarked as E24), and an
// access is compared with the operations of its object back to the nearest
// one that conflicts with everything — a register's last write — rather
// than with the object's whole history (conflictFrontier; E25). A type with
// no such operation still pays one comparison per earlier operation on the
// object (experiment E5). Repeated constructions over one tree should share
// a Checker, which pools all working memory.
func Build(tr *tname.Tree, b event.Behavior) *SG {
	return NewChecker(tr).Build(b)
}

// Cycle describes a directed cycle found in one SG(β, T).
type Cycle struct {
	// Parent is the transaction whose sibling graph contains the cycle.
	Parent tname.TxID
	// Nodes are the children of Parent forming the cycle, in edge order;
	// the edge Nodes[len-1] → Nodes[0] closes it.
	Nodes []tname.TxID
	// Kinds labels the consecutive edges of the cycle.
	Kinds []EdgeKind
}

// Format renders the cycle with full names.
func (c *Cycle) Format(tr *tname.Tree) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle in SG(β, %s): ", tr.Name(c.Parent))
	for i, n := range c.Nodes {
		if i > 0 {
			fmt.Fprintf(&sb, " -[%s]-> ", c.Kinds[i-1])
		}
		sb.WriteString(tr.Label(n))
	}
	fmt.Fprintf(&sb, " -[%s]-> %s", c.Kinds[len(c.Kinds)-1], tr.Label(c.Nodes[0]))
	return sb.String()
}

// SiblingOrder is the certificate produced by an acyclic SG(β): for each
// transaction visible to T0 that has ordered children, a total order (a
// topological sort of SG(β, T)) on the children that occur in β. It
// realizes the paper's suitable sibling order R.
type SiblingOrder struct {
	tr *tname.Tree
	// ByParent maps each parent to its ordered children.
	ByParent map[tname.TxID][]tname.TxID
	// rank[t] is one more than t's position among its ordered siblings, and
	// 0 when t is not ordered. Names defined after the order was built lie
	// beyond the slice and are not ordered either.
	rank []int32
	// flat holds the lists of ByParent one after the other, each in its
	// order, so a walk of the orders needs no map.
	flat []tname.TxID
}

// newSiblingOrder returns an order over tr that ranks nothing yet.
// hint is the number of parents it will order.
func newSiblingOrder(tr *tname.Tree, hint int) *SiblingOrder {
	return &SiblingOrder{tr: tr, ByParent: make(map[tname.TxID][]tname.TxID, hint), rank: make([]int32, tr.NumTx())}
}

// rankOf returns t's position among its ordered siblings plus one, or 0.
func (r *SiblingOrder) rankOf(t tname.TxID) int32 {
	if t < 0 || int(t) >= len(r.rank) {
		return 0
	}
	return r.rank[t]
}

// Rank returns the position of t in its sibling order and whether t is
// ordered at all.
func (r *SiblingOrder) Rank(t tname.TxID) (int, bool) {
	n := r.rankOf(t)
	return int(n) - 1, n > 0
}

// CompareSiblings is a deterministic total order on siblings that extends
// R: siblings ranked by the topological sorts come first in rank order, and
// unranked siblings (which have no conflict or precedes constraints, hence
// may be placed anywhere) follow in name order. Using one shared total
// order for both the view computation and the serial-witness replay keeps
// the two consistent.
func (r *SiblingOrder) CompareSiblings(a, b tname.TxID) bool {
	return a != b && r.siblingKey(a) < r.siblingKey(b)
}

// siblingKey maps a name to an integer that orders it among its siblings
// as CompareSiblings does: ranks fill [1, 2³¹) and unranked names follow
// at 2³² plus the name.
func (r *SiblingOrder) siblingKey(t tname.TxID) int64 {
	if n := r.rankOf(t); n > 0 {
		return int64(n)
	}
	return 1<<32 + int64(t)
}

// Less reports whether (a, b) ∈ the total extension of R_trans: a and b are
// ordered by CompareSiblings on the children of lca(a, b) they descend
// from. It panics when a and b are related by ancestry (R_trans never
// orders such pairs).
func (r *SiblingOrder) Less(a, b tname.TxID) bool {
	if r.tr.IsOrdered(a, b) {
		panic("core: SiblingOrder.Less on ancestrally related names")
	}
	lca := r.tr.LCA(a, b)
	u := r.tr.ChildAncestor(lca, a)
	u2 := r.tr.ChildAncestor(lca, b)
	return r.CompareSiblings(u, u2)
}

// SortSiblings returns the given sibling transactions in the certificate's
// total order (constrained children first in topological order, then
// unconstrained ones). The input is not modified.
func (r *SiblingOrder) SortSiblings(ts []tname.TxID) []tname.TxID {
	out := make([]tname.TxID, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return r.CompareSiblings(out[i], out[j]) })
	return out
}

// SortOps sorts access operations by R_trans on their transaction
// components. The order is total on the operations of one behavior because
// R orders all sibling pairs that occur in it (Theorem 8's construction
// totally orders the children of every visible parent). The input is not
// modified.
func (r *SiblingOrder) SortOps(ops []event.AccessOp) []event.AccessOp {
	var k opKeys
	k.fill(r, ops)
	idx := make([]int32, len(ops))
	for j := range idx {
		idx[j] = int32(j)
	}
	slices.SortFunc(idx, k.compare)
	out := make([]event.AccessOp, len(ops))
	for j, i := range idx {
		out[j] = ops[i]
	}
	return out
}

// opKeys holds R_trans sort keys for a list of access operations, so that
// sorting them compares integers instead of walking the tree to a least
// common ancestor per comparison. An operation's key is the path of
// siblingKeys from the child of T0 down to its access: two paths first
// differ at the children of the two accesses' LCA, where the keys compare
// as CompareSiblings does, so comparing paths is Less.
type opKeys struct {
	off  []int32 // the path of operation j is keys[off[j]:off[j+1]]
	keys []int64
}

// fill computes the key paths of ops under r.
func (k *opKeys) fill(r *SiblingOrder, ops []event.AccessOp) {
	k.off = append(k.off[:0], 0)
	k.keys = k.keys[:0]
	for _, op := range ops {
		start := len(k.keys)
		for u := op.Tx; u != tname.Root; u = r.tr.Parent(u) {
			k.keys = append(k.keys, r.siblingKey(u))
		}
		slices.Reverse(k.keys[start:])
		k.off = append(k.off, int32(len(k.keys)))
	}
}

// compare orders operations i and j by R_trans; two entries of one access
// compare equal. It panics when the accesses are related by ancestry, as
// Less does.
func (k *opKeys) compare(i, j int32) int {
	a := k.keys[k.off[i]:k.off[i+1]]
	b := k.keys[k.off[j]:k.off[j+1]]
	for n := range min(len(a), len(b)) {
		if a[n] != b[n] {
			return cmp.Compare(a[n], b[n])
		}
	}
	if len(a) != len(b) {
		panic("core: SiblingOrder.Less on ancestrally related names")
	}
	return 0
}

// ForgeOrderForTest builds a SiblingOrder from explicit per-parent child
// orders, bypassing the graph construction. It exists so tests can hand the
// witness machinery a *wrong* order and watch it refuse; production code
// must obtain orders from Acyclicity.
func ForgeOrderForTest(tr *tname.Tree, byParent map[tname.TxID][]tname.TxID) *SiblingOrder {
	order := newSiblingOrder(tr, 0)
	order.ByParent = byParent
	for _, kids := range byParent {
		for i, k := range kids {
			order.rank[k] = int32(i + 1)
		}
		order.flat = append(order.flat, kids...)
	}
	return order
}

// Acyclicity checks SG(β) and, when it is acyclic, derives the sibling
// order certificate. On failure it returns the concrete cycle.
//
// Each SG(β, T) is sorted by graph.Search.TopoSort, Kahn's algorithm over a
// min-heap frontier, so ties always break toward the smallest canonical
// index and certificates are reproducible regardless of edge insertion
// order; a cyclic graph's certificate is graph.Search.Cycle's, the first
// cycle an iterative depth-first search meets, starting from each node in
// index order and following out-edges in ascending order. The graphs share
// one scratch, sized once for the largest, and the orders one backing array.
func (sg *SG) Acyclicity() (*SiblingOrder, *Cycle) {
	order := newSiblingOrder(sg.tr, len(sg.parents))
	n, m := 0, 0
	for i := range sg.parents {
		n = max(n, len(sg.parents[i].Children))
		m = max(m, len(sg.parents[i].edges))
	}
	var s graph.Search
	s.Reserve(n)
	buf := make([]int32, n+1+m)
	var all []tname.TxID
	// sg.parents is sorted ascending, so parents are processed in a
	// deterministic order and certificates are reproducible.
	for i := range sg.parents {
		pgr := &sg.parents[i]
		g := pgr.csr(buf)
		topo, ok := s.TopoSort(g)
		if !ok {
			cyc := s.Cycle(g)
			c := &Cycle{Parent: pgr.Parent, Nodes: make([]tname.TxID, len(cyc)), Kinds: make([]EdgeKind, len(cyc))}
			for i, n := range cyc {
				c.Nodes[i] = pgr.Children[n]
				c.Kinds[i] = pgr.kindAt(n, cyc[(i+1)%len(cyc)])
			}
			return nil, c
		}
		if all == nil {
			all = make([]tname.TxID, len(sg.kids))
			order.flat = all[:0]
		}
		order.flat = order.flat[:len(order.flat)+len(topo)]
		kids := all[:len(topo):len(topo)]
		all = all[len(topo):]
		for i, n := range topo {
			kids[i] = pgr.Children[n]
			order.rank[pgr.Children[n]] = int32(i + 1)
		}
		order.ByParent[pgr.Parent] = kids
	}
	return order, nil
}

// csr lays pg out as a CSR graph in buf, which has room for one more entry
// than pg has children and edges together. pg's edges are sorted by
// (From, To), so node v's out-edges are one run, in ascending target order.
func (pg *ParentGraph) csr(buf []int32) graph.CSR {
	n := len(pg.Children)
	off, to := buf[:n+1], buf[n+1:n+1+len(pg.edges)]
	clear(off)
	for i, e := range pg.edges {
		off[e.From+1]++
		to[i] = e.To
	}
	for v := range n {
		off[v+1] += off[v]
	}
	return graph.CSR{Off: off, To: to}
}

// DOT renders one digraph per materialized parent graph — every SG(β, T)
// that acquired at least one edge, in ascending parent order — concatenated.
// Parents whose children have no conflict or precedes constraints are never
// materialized and so do not appear. Nodes are the canonical indices,
// labelled with the children's labels, and edges come in (From, To) order.
func (sg *SG) DOT() string {
	var b []byte
	for i := range sg.parents {
		pgr := &sg.parents[i]
		b = append(b, "digraph "...)
		b = strconv.AppendQuote(b, "SG_"+sg.tr.Name(pgr.Parent))
		b = append(b, " {\n"...)
		for v, t := range pgr.Children {
			b = append(b, "  n"...)
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, " [label="...)
			b = strconv.AppendQuote(b, sg.tr.Label(t))
			b = append(b, "];\n"...)
		}
		for _, e := range pgr.edges {
			b = append(b, "  n"...)
			b = strconv.AppendInt(b, int64(e.From), 10)
			b = append(b, " -> n"...)
			b = strconv.AppendInt(b, int64(e.To), 10)
			b = append(b, ";\n"...)
		}
		b = append(b, "}\n"...)
	}
	return string(b)
}
