// Package graph provides the small directed-graph substrate.
//
//   - Incremental is the topological order the serialization-graph
//     construction keeps over all transaction names.
//   - Search is the repository's one graph search over a CSR graph: Kahn's
//     sort over a min-heap frontier, the first back edge of a depth-first
//     search, and Tarjan's strongly connected components. It certifies each
//     SG(β, T) (core's Acyclicity), finds the knot the server's deadlock
//     breaker resolves, and finds sgvet's lock-order cycles.
//   - Graph is a static graph with deduplicated edges, for the classical
//     checker, the suitability audit and the generic runner's waits-for
//     graph; its TopoSort runs Search over its edges in insertion order.
//
// Nodes are dense small integers supplied by the caller (the SG engine uses
// transaction names themselves). The implementation is iterative —
// histories can contain very long sibling chains and Go stacks, while
// growable, are better left out of complexity arguments.
package graph

import "fmt"

// Graph is a directed graph over nodes 0..n-1 with deduplicated edges, as
// adjacency lists only — no auxiliary edge set.
type Graph struct {
	n   int
	adj [][]int32
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n)}
}

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
}

// csr lays g's adjacency lists out as one CSR graph, each node's edges in
// insertion order.
func (g *Graph) csr() CSR {
	off := make([]int32, g.n+1)
	var to []int32
	for v, ws := range g.adj {
		to = append(to, ws...)
		off[v+1] = int32(len(to))
	}
	return CSR{Off: off, To: to}
}

// TopoSort returns a topological order of the nodes, or (nil, cycle) where
// cycle is a list of nodes forming a directed cycle: Search.TopoSort and
// Search.Cycle over the edges in insertion order. Ties break toward the
// smallest node index, so certificates are reproducible regardless of edge
// insertion order.
func (g *Graph) TopoSort() (order []int, cycle []int) {
	var s Search
	c := g.csr()
	if o, ok := s.TopoSort(c); ok {
		return ints(o), nil
	}
	return nil, ints(s.Cycle(c))
}

// Acyclic reports whether the graph has no directed cycle.
func (g *Graph) Acyclic() bool {
	var s Search
	_, ok := s.TopoSort(g.csr())
	return ok
}

// ints converts node indices to ints.
func ints(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
