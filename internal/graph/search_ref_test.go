package graph

import (
	"container/heap"
	"slices"
	"testing"
)

// FuzzGraphSearchDifferential holds Search to the searches it replaced. The
// input's first byte sizes the graph and every further pair of bytes is an
// edge, duplicates and self-loops included. Over the edges as Graph keeps
// them (deduplicated, in insertion order) TopoSort must give the reference
// order or the reference cycle; over the raw edges as a CSR graph, one
// Search must give the same order and cycle again, and components whose
// members from every node are the reference component through it, numbered
// so that every edge leads to the same or an earlier component.
func FuzzGraphSearchDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		g := New(n)
		var raw [][2]int32
		for i := 1; i+1 < len(data); i += 2 {
			e := [2]int32{int32(data[i]) % int32(n), int32(data[i+1]) % int32(n)}
			raw = append(raw, e)
			g.AddEdge(int(e[0]), int(e[1]))
		}
		order, cycle := g.TopoSort()
		wantOrder, wantCycle := referenceTopoSort(g)
		if !slices.Equal(order, wantOrder) || !slices.Equal(cycle, wantCycle) || (cycle == nil) != (wantCycle == nil) {
			t.Fatalf("TopoSort = %v, %v; reference %v, %v", order, cycle, wantOrder, wantCycle)
		}

		// The raw edges in a stable layout by source, and as the map the
		// reference component search reads.
		c := CSR{Off: make([]int32, n+1), To: make([]int32, len(raw))}
		edges := make(map[int32][]int32)
		for _, e := range raw {
			c.Off[e[0]+1]++
			edges[e[0]] = append(edges[e[0]], e[1])
		}
		for v := range n {
			c.Off[v+1] += c.Off[v]
			copy(c.To[c.Off[v]:], edges[int32(v)])
		}
		var s Search
		if o, ok := s.TopoSort(c); ok != (wantCycle == nil) || ok && !slices.Equal(ints(o), wantOrder) {
			t.Fatalf("Search.TopoSort = %v, %v; reference order %v", o, ok, wantOrder)
		}
		if cyc := s.Cycle(c); !slices.Equal(ints(cyc), wantCycle) || (cyc == nil) != (wantCycle == nil) {
			t.Fatalf("Search.Cycle = %v; reference %v", cyc, wantCycle)
		}
		comp, count := s.Components(c)
		for _, e := range raw {
			if comp[e[0]] < comp[e[1]] || comp[e[0]] >= int32(count) {
				t.Fatalf("edge %v leads from component %d to %d of %d", e, comp[e[0]], comp[e[1]], count)
			}
		}
		for v := range int32(n) {
			var got []int32
			for u, cu := range comp {
				if cu == comp[v] {
					got = append(got, int32(u))
				}
			}
			want := referenceSCCThrough(v, edges)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("component through %d = %v; reference %v", v, got, want)
			}
		}
	})
}

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

// referenceTopoSort is Graph.TopoSort as it was before the graph searches
// moved onto Search: it returns a topological order of the nodes, or (nil, cycle) where
// cycle is a list of nodes forming a directed cycle. Kahn's algorithm over a
// min-heap frontier, so ties always break toward the smallest node index
// and certificates are reproducible regardless of edge insertion order.
func referenceTopoSort(g *Graph) (order []int, cycle []int) {
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
	return nil, referenceFindCycle(g)
}

// referenceFindCycle is the cycle search of referenceTopoSort; it returns
// some directed cycle and it must only be called when one
// exists. Iterative DFS with an explicit stack, tracking the path.
func referenceFindCycle(g *Graph) []int {
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

// referenceSCCThrough is the server's map-based component search as it was
// before its deadlock breaker moved onto Search: the strongly connected
// component containing start, the nodes reachable from start that also
// reach it.
func referenceSCCThrough(start int32, edges map[int32][]int32) []int32 {
	fwd := referenceReachable(start, edges)
	rev := make(map[int32][]int32, len(edges))
	for u, vs := range edges {
		for _, v := range vs {
			rev[v] = append(rev[v], u)
		}
	}
	bwd := referenceReachable(start, rev)
	var scc []int32
	for t := range fwd {
		if bwd[t] {
			scc = append(scc, t)
		}
	}
	return scc
}

// referenceReachable returns the set of nodes reachable from start
// (including start) by following edges.
func referenceReachable(start int32, edges map[int32][]int32) map[int32]bool {
	seen := map[int32]bool{start: true}
	stack := []int32{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range edges[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
