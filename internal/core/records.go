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
func (r *sgRecords) freeze(sg *SG, fz *freezeScratch) {
	ps := append(fz.parents[:0], r.parents...)
	slices.Sort(ps)
	fz.parents = ps
	// rank[t] is t's canonical index among its siblings, written for the
	// children of each parent before its edges are renumbered.
	if k := len(r.names) - len(fz.rank); k > 0 {
		fz.rank = append(fz.rank, make([]int32, k)...)
	}
	// Reserve every span up front: the spans alias the arrays, so the
	// arrays must not move while they fill.
	sg.parents = append(sg.parents[:0], make([]ParentGraph, len(ps))...)[:0]
	sg.kids = append(sg.kids[:0], make([]tname.TxID, r.nodes)...)[:0]
	sg.edges = append(sg.edges[:0], make([]Edge, len(r.recs))...)[:0]
	for _, p := range ps {
		k0 := len(sg.kids)
		for t := r.names[p].firstKid; t >= 0; t = r.names[t].next {
			sg.kids = append(sg.kids, t)
		}
		kids := sg.kids[k0:len(sg.kids):len(sg.kids)]
		slices.Sort(kids)
		for i, t := range kids {
			fz.rank[t] = int32(i)
		}

		// Sorting by names sorts by canonical indices, which are ranks
		// of the names among the children.
		e0 := len(sg.edges)
		for i := r.names[p].firstEdge; i >= 0; i = r.recs[i].next {
			e := r.recs[i]
			sg.edges = append(sg.edges, Edge{From: int32(e.from), To: int32(e.to), Kind: e.kind})
		}
		es := sg.edges[e0:]
		slices.SortFunc(es, compareEdges)
		// Merge the per-kind records of one pair into a single labelled
		// edge, and renumber.
		m := 0
		for _, e := range es {
			if m > 0 && es[m-1].From == e.From && es[m-1].To == e.To {
				es[m-1].Kind |= e.Kind
				continue
			}
			es[m] = e
			m++
		}
		es = es[:m:m]
		for i := range es {
			es[i].From, es[i].To = fz.rank[es[i].From], fz.rank[es[i].To]
		}
		sg.edges = sg.edges[:e0+m]
		sg.parents = append(sg.parents, ParentGraph{Parent: p, Children: kids, edges: es})
	}
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	if a.From != b.From {
		return int(a.From) - int(b.From)
	}
	return int(a.To) - int(b.To)
}
