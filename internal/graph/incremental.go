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
// The online serialization-graph checker uses one Incremental per parent
// graph SG(β, T): every appended edge either preserves acyclicity (and the
// order certificate stays valid) or closes a cycle, which AddEdge reports
// immediately — the checker rejects the trace at that exact prefix instead
// of re-running a full sort per event.
//
// Each edge carries a label set, opaque to this package (the serialization
// graph's edge kinds), in the out-list entry that already holds the pair, so
// a caller that dedups labelled records needs no map beside the graph.
//
// All search scratch (visited stamps, discovery buffers, the slot pool) is
// owned by the struct and epoch-stamped, so a long append sequence — and a
// Reset followed by a refill — runs without steady-state allocations.
type Incremental struct {
	out [][]arc
	in  [][]int32
	m   int
	// pos[v] is v's position in the maintained topological order; positions
	// always form a permutation of 0..n-1.
	pos []int32

	// Search scratch, reused across AddEdge calls. markF/markB hold the
	// epoch at which a node was last discovered forward/backward; parent
	// records the forward search tree for cycle extraction.
	epoch          uint32
	markF, markB   []uint32
	parent         []int32
	deltaF, deltaB []int32
	stack          []int32
	nodes, slots   []int32
}

// arc is one out-edge with the labels recorded on it.
type arc struct {
	to    int32
	kinds uint8
}

// NewIncremental returns an incremental DAG with n nodes, no edges, and
// the identity order.
func NewIncremental(n int) *Incremental {
	g := &Incremental{}
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return g
}

// Reset empties the graph back to zero nodes, keeping every backing array
// so a refill of similar shape allocates nothing. The epoch stamps survive,
// which is what keeps the reused mark arrays valid.
func (g *Incremental) Reset() {
	g.pos = g.pos[:0]
	g.out = g.out[:0]
	g.in = g.in[:0]
	g.m = 0
}

// AddNode appends a node at the end of the maintained order and returns
// its index.
func (g *Incremental) AddNode() int {
	v := len(g.pos)
	g.pos = append(g.pos, int32(v))
	if cap(g.out) > v {
		g.out = g.out[:v+1]
		g.out[v] = g.out[v][:0]
	} else {
		g.out = append(g.out, nil)
	}
	if cap(g.in) > v {
		g.in = g.in[:v+1]
		g.in[v] = g.in[v][:0]
	} else {
		g.in = append(g.in, nil)
	}
	if len(g.markF) <= v {
		g.markF = append(g.markF, 0)
		g.markB = append(g.markB, 0)
		g.parent = append(g.parent, 0)
	}
	return v
}

// Len returns the number of nodes.
func (g *Incremental) Len() int { return len(g.pos) }

// NumEdges returns the number of distinct edges.
func (g *Incremental) NumEdges() int { return g.m }

// HasEdge reports whether from→to is present.
func (g *Incremental) HasEdge(from, to int) bool {
	if from < 0 || from >= len(g.out) {
		return false
	}
	return g.find(from, to) >= 0
}

// find returns the index of the arc from→to in out[from], or -1.
func (g *Incremental) find(from, to int) int {
	for i, a := range g.out[from] {
		if int(a.to) == to {
			return i
		}
	}
	return -1
}

// Pos returns the position of v in the maintained topological order.
func (g *Incremental) Pos(v int) int { return int(g.pos[v]) }

// bumpEpoch advances the scratch stamp, clearing the mark arrays on the
// (effectively unreachable) wraparound so stale stamps can never collide.
func (g *Incremental) bumpEpoch() uint32 {
	g.epoch++
	if g.epoch == 0 {
		for i := range g.markF {
			g.markF[i] = 0
			g.markB[i] = 0
		}
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
// not carry yet — one scan of out[from] answers both. Only a new pair can
// change the order: with order set it is then maintained as AddEdge does,
// and cyc is the cycle the edge closes. With order unset the edge is only
// recorded, which is how a caller whose order went stale at a cycle keeps
// deduplicating later records.
func (g *Incremental) AddLabel(from, to int, kind uint8, order bool) (fresh bool, cyc []int) {
	if from < 0 || from >= len(g.pos) || to < 0 || to >= len(g.pos) {
		panic(fmt.Sprintf("graph: incremental edge (%d,%d) out of range [0,%d)", from, to, len(g.pos)))
	}
	if i := g.find(from, to); i >= 0 {
		a := &g.out[from][i]
		fresh = a.kinds|kind != a.kinds
		a.kinds |= kind
		return fresh, nil
	}
	g.out[from] = append(g.out[from], arc{to: int32(to), kinds: kind})
	g.in[to] = append(g.in[to], int32(from))
	g.m++
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
	lb, ub := g.pos[to], g.pos[from]
	if ub < lb {
		// The edge already agrees with the order: nothing to do.
		return nil
	}
	ep := g.bumpEpoch()
	// Discovery: forward from `to` over nodes positioned ≤ ub. Any path
	// to→…→from lies entirely inside [lb, ub] (positions increase along
	// edges of a respected order), so reaching `from` here is the complete
	// cycle test.
	deltaF := append(g.deltaF[:0], int32(to))
	g.markF[to] = ep
	stack := append(g.stack[:0], int32(to))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.out[v] {
			w := a.to
			if int(w) == from {
				// Cycle: to → … → v → from, closed by the new from→to.
				g.deltaF, g.stack = deltaF, stack
				cyc := []int{}
				for u := v; ; u = g.parent[u] {
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
			if g.pos[w] < ub && g.markF[w] != ep {
				g.markF[w] = ep
				g.parent[w] = v
				deltaF = append(deltaF, w)
				stack = append(stack, w)
			}
		}
	}
	// Backward from `from` over nodes positioned > lb. (`to` cannot be
	// reached: that would be a to⇒from path, found above.)
	deltaB := append(g.deltaB[:0], int32(from))
	g.markB[from] = ep
	stack = append(stack[:0], int32(from))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.in[v] {
			if g.pos[w] > lb && g.markB[w] != ep {
				g.markB[w] = ep
				deltaB = append(deltaB, w)
				stack = append(stack, w)
			}
		}
	}
	// Reassignment: everything that reaches `from` must precede everything
	// reachable from `to`. Keep each group's internal order and pour both
	// into the sorted pool of their old positions.
	byPos := func(a, b int32) int { return int(g.pos[a]) - int(g.pos[b]) }
	slices.SortFunc(deltaB, byPos)
	slices.SortFunc(deltaF, byPos)
	nodes := append(append(g.nodes[:0], deltaB...), deltaF...)
	slots := g.slots[:0]
	for _, v := range nodes {
		slots = append(slots, g.pos[v])
	}
	slices.Sort(slots)
	for i, v := range nodes {
		g.pos[v] = slots[i]
	}
	g.deltaF, g.deltaB, g.stack, g.nodes, g.slots = deltaF, deltaB, stack, nodes, slots
	return nil
}
