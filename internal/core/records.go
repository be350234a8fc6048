package core

import (
	"slices"

	"nestedsg/internal/graph"
	"nestedsg/internal/tname"
)

// sgRecords is SG(β) while it accumulates: the materialized children of
// every parent and its (pair, kind) edge records, both in discovery order,
// and one Pearce–Kelly order over all names that detects the first cycle.
// Every name is a child of exactly one parent and every edge joins two
// siblings, so the one order, restricted to the children of T, is a
// topological order of SG(β, T) — the engine keeps one order, not one per
// parent graph. The Incremental (fed events) and the Composer (fed edge
// records) are both this structure.
//
// Nothing here is a per-parent object: a parent's children are linked
// through names, its edge records through one shared arena, and the heads
// and tails of both lists live in the parent's own name entry. All of it is
// pointer-free and indexed by name or by arena position, so an engine
// costs a fixed number of allocations however many parent graphs it holds,
// and reset rewinds it keeping every backing array.
type sgRecords struct {
	tr *tname.Tree

	// order is the Pearce–Kelly order, indexed by TxID. It is maintained
	// until the first cycle and stale after it.
	order *graph.Incremental

	// names holds one entry per transaction name, recs the edge records of
	// every parent graph.
	names []nameRec
	recs  []edgeRec

	// parents lists the materialized parent graphs in discovery order;
	// nodes counts their children.
	parents []tname.TxID
	nodes   int

	cyclic bool
}

// nameRec is what the records keep per name. As a child: next, the next
// child of its parent in discovery order (-1 for the last, notChild until
// materialized). As a parent: the first and last materialized child and
// the first and last edge record, -1 while there are none.
type nameRec struct {
	next                tname.TxID
	firstKid, lastKid   tname.TxID
	firstEdge, lastEdge int32
}

// notChild marks a name that is no materialized child of its parent.
const notChild tname.TxID = -2

// edgeRec is one (pair, kind) record of its parent's graph and the arena
// index of the parent's next record (-1 at the end).
type edgeRec struct {
	from, to tname.TxID
	next     int32
	kind     EdgeKind
}

var freshName = nameRec{next: notChild, firstKid: -1, lastKid: -1, firstEdge: -1, lastEdge: -1}

// newRecords returns empty records sized to tr's current names.
func newRecords(tr *tname.Tree) sgRecords {
	r := sgRecords{tr: tr, order: graph.NewIncremental(tr.NumTx())}
	r.grow()
	return r
}

// grow sizes the per-name arrays to the current tree, in one step however
// many names were added. The tree is append-only and may gain names between
// calls (a server interning fresh transactions mid-stream).
func (r *sgRecords) grow() {
	n := r.tr.NumTx()
	if k := n - len(r.names); k > 0 {
		old := len(r.names)
		r.names = append(r.names, make([]nameRec, k)...)
		for i := old; i < n; i++ {
			r.names[i] = freshName
		}
	}
	for r.order.Len() < n {
		r.order.AddNode()
	}
}

// reserve makes room for the given numbers of parent graphs and edge
// records, in the records and in the order's arcs.
func (r *sgRecords) reserve(parents, edges int) {
	r.parents = slices.Grow(r.parents, parents)
	r.recs = slices.Grow(r.recs, edges)
	r.order.Reserve(edges)
}

// reset rewinds to the empty graph, keeping every backing array.
func (r *sgRecords) reset() {
	for _, p := range r.parents {
		pr := &r.names[p]
		for t := pr.firstKid; t >= 0; {
			next := r.names[t].next
			r.names[t].next = notChild
			t = next
		}
		// p's own next belongs to its parent's list, reset by that walk.
		pr.firstKid, pr.lastKid, pr.firstEdge, pr.lastEdge = -1, -1, -1, -1
	}
	r.recs = r.recs[:0]
	r.parents = r.parents[:0]
	r.nodes = 0
	r.order.Reset()
	r.cyclic = false
	r.grow()
}

// add records from→to in SG(β, parent) and feeds a new pair to the order,
// flagging the first cycle. Once a cycle is flagged the order is stale: new
// pairs are still recorded, so records stay deduplicated and a snapshot
// stays truthful, but the order is no longer updated. add reports whether
// the (pair, kind) record is new; the arc labels of the order dedup it.
//
//sgvet:hotpath
func (r *sgRecords) add(parent, from, to tname.TxID, kind EdgeKind) bool {
	if r.names[parent].firstKid < 0 {
		// First edge of this prefix: every listed parent has children.
		r.parents = append(r.parents, parent)
	}
	r.child(parent, from)
	r.child(parent, to)
	fresh, cyc := r.order.AddLabel(int(from), int(to), uint8(kind), !r.cyclic)
	if !fresh {
		return false
	}
	p := &r.names[parent]
	k := int32(len(r.recs))
	r.recs = append(r.recs, edgeRec{from: from, to: to, next: -1, kind: kind})
	if p.lastEdge >= 0 {
		r.recs[p.lastEdge].next = k
	} else {
		p.firstEdge = k
	}
	p.lastEdge = k
	if cyc != nil {
		r.cyclic = true
	}
	return true
}

// child materializes t as a child of p on first use, at the end of p's
// discovery order.
//
//sgvet:hotpath
func (r *sgRecords) child(p, t tname.TxID) {
	if r.names[t].next != notChild {
		return
	}
	r.names[t].next = -1
	if pr := &r.names[p]; pr.lastKid >= 0 {
		r.names[pr.lastKid].next = t
		pr.lastKid = t
	} else {
		pr.firstKid, pr.lastKid = t, t
	}
	r.nodes++
}

// same reports whether r and o hold the same parent graphs in the same
// discovery order, each with the same children and the same edge records,
// each in discovery order.
//
//sgvet:hotpath
func (r *sgRecords) same(o *sgRecords) bool {
	if !slices.Equal(r.parents, o.parents) {
		return false
	}
	for _, p := range r.parents {
		a, b := r.names[p].firstKid, o.names[p].firstKid
		for ; a >= 0 && a == b; a, b = r.names[a].next, o.names[b].next {
		}
		if a != b {
			return false
		}
		i, j := r.names[p].firstEdge, o.names[p].firstEdge
		for ; i >= 0 && j >= 0; i, j = r.recs[i].next, o.recs[j].next {
			x, y := r.recs[i], o.recs[j]
			if x.from != y.from || x.to != y.to || x.kind != y.kind {
				return false
			}
		}
		if i >= 0 || j >= 0 {
			return false
		}
	}
	return true
}

// freeze writes the canonical SG of the records into sg's flat arrays: the
// parent graphs in ascending parent order, each one span of sg.kids — its
// children in ascending name order, the canonical numbering — and one span
// of sg.edges — its merged edges over canonical indices, sorted by
// (From, To). Node indices, hence topological sorts, cycle certificates and
// DOT output, then depend only on the edge set, not on the order edges were
// discovered, which is what lets the engine, its partitions and the
// composer certify identically. The records are only read. A pooled SG
// refills without allocating; a fresh one takes one allocation per array.
//
// Every key is dense, so nothing is compared: one ascending scan of the
// names lists the parents in order, a second places each child in its
// parent's span, and the edge records are put in order by two counting
// passes over the children's positions in sg.kids — stably by target, then
// by source, which also groups them by parent, since the spans lie in
// parent order — before the records of one pair merge into a labelled
// edge.
//
//sgvet:hotpath
func (r *sgRecords) freeze(sg *SG, fz *freezeScratch) {
	// at[t] is first the index of t's parent among the parents, then t's
	// position in sg.kids; next[i] is the next free position of parent i's
	// span.
	at := sized(fz.at, len(r.names))
	next := sized(fz.next, len(r.parents))[:0]
	// Reserve every span up front: the spans alias the arrays, so the
	// arrays must not move while they fill.
	sg.parents = sized(sg.parents, len(r.parents))[:0]
	sg.kids = sized(sg.kids, r.nodes)
	sg.edges = sized(sg.edges, len(r.recs))
	k := int32(0)
	for p := range r.names {
		if r.names[p].firstKid < 0 {
			continue
		}
		i := int32(len(next))
		k0 := k
		for t := r.names[p].firstKid; t >= 0; t = r.names[t].next {
			at[t] = i
			k++
		}
		next = append(next, k0)
		sg.parents = append(sg.parents, ParentGraph{Parent: tname.TxID(p), Children: sg.kids[k0:k:k]})
	}
	for t := range r.names {
		if r.names[t].next == notChild {
			continue
		}
		i := at[t]
		at[t] = next[i]
		sg.kids[next[i]] = tname.TxID(t)
		next[i]++
	}

	// Counting passes over positions in sg.kids: the records, by index,
	// by target into perm, then stably by source into sg.edges.
	count := sized(fz.count, int(k)+1)
	perm := sized(fz.perm, len(r.recs))
	for _, e := range r.recs {
		count[at[e.to]+1]++
	}
	for v := range k {
		count[v+1] += count[v]
	}
	for i, e := range r.recs {
		to := at[e.to]
		perm[count[to]] = int32(i)
		count[to]++
	}
	clear(count)
	for _, e := range r.recs {
		count[at[e.from]+1]++
	}
	for v := range k {
		count[v+1] += count[v]
	}
	for _, i := range perm {
		e := &r.recs[i]
		from := at[e.from]
		sg.edges[count[from]] = Edge{From: from, To: at[e.to], Kind: e.kind}
		count[from]++
	}
	fz.at, fz.next, fz.count, fz.perm = at, next, count, perm

	// After the placement pass next[i] is where span i ends.
	m, j, k0 := 0, 0, int32(0)
	for i := range sg.parents {
		pg := &sg.parents[i]
		end := next[i]
		e0 := m
		for ; j < len(sg.edges) && sg.edges[j].From < end; j++ {
			e := sg.edges[j]
			e.From -= k0
			e.To -= k0
			if m > e0 && sg.edges[m-1].From == e.From && sg.edges[m-1].To == e.To {
				sg.edges[m-1].Kind |= e.Kind
				continue
			}
			sg.edges[m] = e
			m++
		}
		pg.edges = sg.edges[e0:m:m]
		k0 = end
	}
	sg.edges = sg.edges[:m]
}

// sized returns s resized to n zeroed elements, in place when its capacity
// allows. It is kept out of line, so that a growth is this function's
// allocation and the hotalloc gate holds the pooled paths that call it to
// their steady state, in which nothing grows.
//
//go:noinline
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
