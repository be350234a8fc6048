// Package graph provides the small directed-graph substrate: the
// incremental topological order the serialization-graph construction keeps
// over all transaction names (Incremental), and a static graph with cycle
// detection, topological sorting and DOT export (Graph) for the classical
// checker, the suitability audit and the generic runner's waits-for graph.
//
// Nodes are dense small integers supplied by the caller (the SG engine uses
// transaction names themselves). The implementation is iterative —
// histories can contain very long sibling chains and Go stacks, while
// growable, are better left out of complexity arguments.
package graph

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// Graph is a directed graph over nodes 0..n-1 with deduplicated edges, as
// adjacency lists only — no auxiliary edge set.
type Graph struct {
	n   int
	m   int
	adj [][]int32
}

type edge struct{ from, to int32 }

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts the edge from→to, ignoring duplicates and panicking on
// out-of-range nodes. Self-loops are recorded (they are cycles). The
// duplicate check scans from's adjacency list.
func (g *Graph) AddEdge(from, to int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	for _, w := range g.adj[from] {
		if int(w) == to {
			return
		}
	}
	g.adj[from] = append(g.adj[from], int32(to))
	g.m++
}

// HasEdge reports whether from→to is present.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 0 || from >= g.n {
		return false
	}
	for _, w := range g.adj[from] {
		if int(w) == to {
			return true
		}
	}
	return false
}

// Succ returns the successors of node v; the slice is owned by the graph.
func (g *Graph) Succ(v int) []int32 { return g.adj[v] }

// nodeHeap is a min-heap of node indices: the TopoSort frontier.
type nodeHeap []int32

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopoSort returns a topological order of the nodes, or (nil, cycle) where
// cycle is a list of nodes forming a directed cycle. Kahn's algorithm over a
// min-heap frontier, so ties always break toward the smallest node index
// and certificates are reproducible regardless of edge insertion order.
func (g *Graph) TopoSort() (order []int, cycle []int) {
	indeg := make([]int, g.n)
	for v := range g.adj {
		for _, w := range g.adj[v] {
			indeg[w]++
		}
	}
	h := make(nodeHeap, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			h = append(h, int32(v))
		}
	}
	// Ascending append order is already a valid min-heap.
	order = make([]int, 0, g.n)
	for h.Len() > 0 {
		v := int(heap.Pop(&h).(int32))
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				heap.Push(&h, w)
			}
		}
	}
	if len(order) == g.n {
		return order, nil
	}
	return nil, g.findCycle()
}

// Acyclic reports whether the graph has no directed cycle.
func (g *Graph) Acyclic() bool {
	_, cycle := g.TopoSort()
	return cycle == nil
}

// findCycle returns some directed cycle; it must only be called when one
// exists. Iterative DFS with an explicit stack, tracking the path.
func (g *Graph) findCycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, g.n)
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		v    int32
		next int
	}
	for start := 0; start < g.n; start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{{v: int32(start)}}
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.v]) {
				w := g.adj[f.v][f.next]
				f.next++
				switch color[w] {
				case white:
					color[w] = grey
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case grey:
					// Found a back edge f.v -> w; walk parents from f.v to w.
					cyc := []int{int(w)}
					for u := f.v; u != w; u = parent[u] {
						cyc = append(cyc, int(u))
					}
					// Reverse so the cycle reads in edge direction.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// DOT renders the graph in Graphviz DOT syntax. label maps node indices to
// display names; nil uses the index.
func (g *Graph) DOT(name string, label func(int) string) string {
	if label == nil {
		label = func(v int) string { return fmt.Sprintf("%d", v) }
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", v, label(v))
	}
	// Deterministic edge order.
	es := make([]edge, 0, g.m)
	for v := range g.adj {
		for _, w := range g.adj[v] {
			es = append(es, edge{int32(v), w})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].from != es[j].from {
			return es[i].from < es[j].from
		}
		return es[i].to < es[j].to
	})
	for _, e := range es {
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", e.from, e.to)
	}
	sb.WriteString("}\n")
	return sb.String()
}
