package graph

import (
	"fmt"
	"slices"
)

// Incremental maintains a topological order of a growing directed acyclic
// graph under single-edge insertions, using the two-way bounded search of
// Pearce & Kelly ("A Dynamic Topological Sort Algorithm for Directed
// Acyclic Graphs", JEA 2006). Inserting an edge that already respects the
// maintained order costs O(1); otherwise only the nodes whose positions lie
// in the affected region [pos(to), pos(from)] are searched and reshuffled,
// which is the region a violating edge can possibly disturb.
//
// The online serialization-graph checker keeps one Incremental over all
// transaction names: every name is a child of exactly one parent and every
// edge of SG(β) joins two siblings, so one order over all names orders each
// sibling graph SG(β, T) at once. Every appended edge either preserves
// acyclicity (and the order certificate stays valid) or closes a cycle,
// which AddEdge reports immediately — the checker rejects the trace at that
// exact prefix instead of re-running a full sort per event.
//
// Each edge carries a label set, opaque to this package (the serialization
// graph's edge kinds), in the out-arc that already holds the pair, so a
// caller that dedups labelled records needs no map beside the graph.
//
// The out-lists and in-lists are linked lists, in insertion order, threaded
// through two shared arenas that hold no pointers: a graph costs a fixed
// number of allocations however many nodes have edges, and the collector
// has nothing to scan in it. All search scratch (visited stamps, discovery
// buffers, the slot pool) is owned by the struct and epoch-stamped, so a
// long append sequence — and a Reset followed by a refill — runs without
// steady-state allocations.
type Incremental struct {
	vs   []vertex
	arcs []arc   // out-arcs, linked per source
	ins  []inArc // in-arcs, linked per target

	// Search scratch, reused across AddEdge calls. marks is per node,
	// sized at the first search that needs one, and epoch-stamped, so
	// Reset keeps it as it is.
	epoch          uint32
	marks          []mark
	deltaF, deltaB []int32
	stack          []int32
	nodes, slots   []int32
}

// vertex is what the graph keeps per node: its position in the maintained
// topological order (positions always form a permutation of 0..n-1) and
// the first and last arc of its out-list and in-list, -1 when the list is
// empty.
type vertex struct {
	pos          int32
	out, outLast int32
	in, inLast   int32
}

// mark is a node's search scratch: the epoch at which it was last
// discovered forward (f) and backward (b), and its parent in the forward
// search tree, for cycle extraction.
type mark struct {
	f, b   uint32
	parent int32
}

// arc is one out-edge with the labels recorded on it and the next arc of
// its source's list (-1 at the end).
type arc struct {
	to, next int32
	kinds    uint8
}

// inArc is one in-edge and the next arc of its target's list.
type inArc struct {
	from, next int32
}

// NewIncremental returns an incremental DAG with n nodes, no edges, and
// the identity order.
func NewIncremental(n int) *Incremental {
	g := &Incremental{vs: make([]vertex, 0, n)}
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return g
}

// Reset empties the graph back to zero nodes, keeping every backing array
// so a refill of similar shape allocates nothing. The epoch stamps survive,
// which is what keeps the reused marks valid.
func (g *Incremental) Reset() {
	g.vs = g.vs[:0]
	g.arcs = g.arcs[:0]
	g.ins = g.ins[:0]
}

// Reserve makes room for n more edges, so that a caller that knows how
// many it will insert grows the arc arenas once.
func (g *Incremental) Reserve(n int) {
	g.arcs = slices.Grow(g.arcs, n)
	g.ins = slices.Grow(g.ins, n)
}

// AddNode appends a node at the end of the maintained order and returns
// its index.
func (g *Incremental) AddNode() int {
	v := len(g.vs)
	g.vs = append(g.vs, vertex{pos: int32(v), out: -1, outLast: -1, in: -1, inLast: -1})
	return v
}

// Len returns the number of nodes.
func (g *Incremental) Len() int { return len(g.vs) }

// NumEdges returns the number of distinct edges.
func (g *Incremental) NumEdges() int { return len(g.arcs) }

// HasEdge reports whether from→to is present.
func (g *Incremental) HasEdge(from, to int) bool {
	if from < 0 || from >= len(g.vs) {
		return false
	}
	return g.find(from, to) >= 0
}

// find returns the arena index of the arc from→to, or -1.
func (g *Incremental) find(from, to int) int32 {
	for i := g.vs[from].out; i >= 0; i = g.arcs[i].next {
		if int(g.arcs[i].to) == to {
			return i
		}
	}
	return -1
}

// Pos returns the position of v in the maintained topological order.
func (g *Incremental) Pos(v int) int { return int(g.vs[v].pos) }

// growMarks sizes the search marks to the nodes. They are only needed
// once an edge disagrees with the order, so a graph whose edges all agree
// with it never allocates them.
//
//go:noinline
func (g *Incremental) growMarks() []mark {
	g.marks = append(g.marks, make([]mark, len(g.vs)-len(g.marks))...)
	return g.marks
}

// bumpEpoch advances the scratch stamp, clearing the marks on the
// (effectively unreachable) wraparound so stale stamps can never collide.
func (g *Incremental) bumpEpoch() uint32 {
	g.epoch++
	if g.epoch == 0 {
		clear(g.marks)
		g.epoch = 1
	}
	return g.epoch
}

// AddEdge inserts the edge from→to, maintaining the topological order. It
// returns nil when the graph stays acyclic, and otherwise a directed cycle
// the new edge closes, in edge order (the edge from the last node to the
// first closes it). Duplicate edges are ignored. After a non-nil return the
// maintained order is stale; the caller is expected to stop feeding edges
// (the serialization checker rejects the trace at this point).
func (g *Incremental) AddEdge(from, to int) []int {
	_, cyc := g.AddLabel(from, to, 0, true)
	return cyc
}

// AddLabel records the labels kind on the edge from→to, inserting the edge
// when the pair is new, and reports whether kind added a label the pair did
// not carry yet — one walk of from's out-list answers both. Only a new pair
// can change the order: with order set it is then maintained as AddEdge
// does, and cyc is the cycle the edge closes. With order unset the edge is
// only recorded, which is how a caller whose order went stale at a cycle
// keeps deduplicating later records.
func (g *Incremental) AddLabel(from, to int, kind uint8, order bool) (fresh bool, cyc []int) {
	if from < 0 || from >= len(g.vs) || to < 0 || to >= len(g.vs) {
		panic(fmt.Sprintf("graph: incremental edge (%d,%d) out of range [0,%d)", from, to, len(g.vs)))
	}
	if i := g.find(from, to); i >= 0 {
		a := &g.arcs[i]
		fresh = a.kinds|kind != a.kinds
		a.kinds |= kind
		return fresh, nil
	}
	f, t := &g.vs[from], &g.vs[to]
	k := int32(len(g.arcs))
	g.arcs = append(g.arcs, arc{to: int32(to), next: -1, kinds: kind})
	if f.outLast >= 0 {
		g.arcs[f.outLast].next = k
	} else {
		f.out = k
	}
	f.outLast = k
	g.ins = append(g.ins, inArc{from: int32(from), next: -1})
	if t.inLast >= 0 {
		g.ins[t.inLast].next = k
	} else {
		t.in = k
	}
	t.inLast = k
	if !order {
		return true, nil
	}
	return true, g.reorder(from, to)
}

// reorder restores the topological order after the new edge from→to, or
// returns the cycle it closes.
func (g *Incremental) reorder(from, to int) []int {
	if from == to {
		return []int{from}
	}
	vs, marks := g.vs, g.marks
	lb, ub := vs[to].pos, vs[from].pos
	if ub < lb {
		// The edge already agrees with the order: nothing to do.
		return nil
	}
	if len(marks) < len(vs) {
		marks = g.growMarks()
	}
	ep := g.bumpEpoch()
	// Discovery: forward from `to` over nodes positioned ≤ ub. Any path
	// to→…→from lies entirely inside [lb, ub] (positions increase along
	// edges of a respected order), so reaching `from` here is the complete
	// cycle test.
	deltaF := append(g.deltaF[:0], int32(to))
	marks[to].f = ep
	stack := append(g.stack[:0], int32(to))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := vs[v].out; i >= 0; i = g.arcs[i].next {
			w := g.arcs[i].to
			if int(w) == from {
				// Cycle: to → … → v → from, closed by the new from→to.
				g.deltaF, g.stack = deltaF, stack
				cyc := []int{}
				for u := v; ; u = marks[u].parent {
					cyc = append(cyc, int(u))
					if int(u) == to {
						break
					}
				}
				// Collected back-to-front; reverse into edge order and
				// append the far endpoint.
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return append(cyc, from)
			}
			if mw := &marks[w]; vs[w].pos < ub && mw.f != ep {
				mw.f = ep
				mw.parent = v
				deltaF = append(deltaF, w)
				stack = append(stack, w)
			}
		}
	}
	// Backward from `from` over nodes positioned > lb. (`to` cannot be
	// reached: that would be a to⇒from path, found above.)
	deltaB := append(g.deltaB[:0], int32(from))
	marks[from].b = ep
	stack = append(stack[:0], int32(from))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := vs[v].in; i >= 0; i = g.ins[i].next {
			w := g.ins[i].from
			if mw := &marks[w]; vs[w].pos > lb && mw.b != ep {
				mw.b = ep
				deltaB = append(deltaB, w)
				stack = append(stack, w)
			}
		}
	}
	// Reassignment: everything that reaches `from` must precede everything
	// reachable from `to`. Keep each group's internal order and pour both
	// into the sorted pool of their old positions.
	byPos := func(a, b int32) int { return int(vs[a].pos) - int(vs[b].pos) }
	slices.SortFunc(deltaB, byPos)
	slices.SortFunc(deltaF, byPos)
	nodes := append(append(g.nodes[:0], deltaB...), deltaF...)
	slots := g.slots[:0]
	for _, v := range nodes {
		slots = append(slots, vs[v].pos)
	}
	slices.Sort(slots)
	for i, v := range nodes {
		vs[v].pos = slots[i]
	}
	g.deltaF, g.deltaB, g.stack, g.nodes, g.slots = deltaF, deltaB, stack, nodes, slots
	return nil
}
