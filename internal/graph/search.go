package graph

import "slices"

// CSR is a directed graph over the nodes 0..len(Off)-2 in compressed sparse
// row form: node v's out-edges go to To[Off[v]:Off[v+1]]. Every search
// follows them in this stored order, so the caller's layout decides which
// cycle Cycle reports.
type CSR struct{ Off, To []int32 }

// Len returns the number of nodes.
func (g CSR) Len() int { return len(g.Off) - 1 }

// Search is the working memory of the searches over CSR graphs. The zero
// value is ready to use. It grows to the largest graph searched (Reserve
// sizes it ahead) and then allocates nothing. A slice a search returns is
// s's until s's next search.
type Search struct {
	// num is TopoSort's in-degree, Cycle's colour or Components' discovery
	// index of each node; aux is TopoSort's frontier heap or Components'
	// low-link; out is the result.
	num, aux, out []int32
	// stack holds Components' visited nodes that have no component yet.
	stack []int32
	// path is the depth-first search's path from its start.
	path []frame
}

// frame is a node on a depth-first path and the index into To of the next
// out-edge to follow.
type frame struct{ v, next int32 }

// Reserve sizes s for graphs of up to n nodes.
func (s *Search) Reserve(n int) {
	s.num = slices.Grow(s.num[:0], n)[:n]
	s.aux = slices.Grow(s.aux[:0], n)[:n]
	s.out = slices.Grow(s.out[:0], n)[:n]
}

// TopoSort returns a topological order of g, or ok = false when g has a
// cycle. Kahn's algorithm over a min-heap frontier: of the nodes whose
// predecessors are all placed, the smallest index goes next, so the order
// is reproducible whatever the edge layout.
func (s *Search) TopoSort(g CSR) (order []int32, ok bool) {
	n := g.Len()
	s.Reserve(n)
	indeg := s.num
	clear(indeg)
	for _, w := range g.To[:g.Off[n]] {
		indeg[w]++
	}
	// Ascending append order is already a valid min-heap. Every node enters
	// the heap and the order at most once, so neither outgrows n.
	h := s.aux[:0]
	for v := range int32(n) {
		if indeg[v] == 0 {
			h = append(h, v)
		}
	}
	order = s.out[:0]
	for len(h) > 0 {
		v := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h)
		order = append(order, v)
		for _, w := range g.To[g.Off[v]:g.Off[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				h = append(h, w)
				siftUp(h)
			}
		}
	}
	return order, len(order) == n
}

// siftDown restores the min-heap h after its root was replaced.
func siftDown(h []int32) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftUp restores the min-heap h after an append.
func siftUp(h []int32) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// Cycle returns a directed cycle of g in edge order, or nil when g is
// acyclic. It is the first back edge of an iterative depth-first search,
// started from each unvisited node in index order and following out-edges
// in stored order, closed by the search path from the edge's target: the
// cycle runs from the target's successor on the path to the target.
func (s *Search) Cycle(g CSR) []int32 {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	s.Reserve(g.Len())
	color := s.num
	clear(color)
	for start := range int32(g.Len()) {
		if color[start] != white {
			continue
		}
		path := append(s.path[:0], frame{v: start, next: g.Off[start]})
		color[start] = grey
		for len(path) > 0 {
			f := &path[len(path)-1]
			if f.next == g.Off[f.v+1] {
				color[f.v] = black
				path = path[:len(path)-1]
				continue
			}
			w := g.To[f.next]
			f.next++
			switch color[w] {
			case white:
				color[w] = grey
				path = append(path, frame{v: w, next: g.Off[w]})
			case grey:
				// Found a back edge f.v -> w: w is on the path.
				i := len(path) - 1
				for path[i].v != w {
					i--
				}
				cyc := s.out[:0]
				for _, f := range path[i+1:] {
					cyc = append(cyc, f.v)
				}
				s.path, s.out = path, append(cyc, w)
				return s.out
			}
		}
		s.path = path
	}
	return nil
}

// Components labels each node of g with its strongly connected component:
// Tarjan's algorithm, run iteratively from each unvisited node in index
// order and following out-edges in stored order. Components are numbered
// 0..count-1 in the order the search completes them, which puts each after
// every component it reaches.
func (s *Search) Components(g CSR) (comp []int32, count int) {
	n := g.Len()
	s.Reserve(n)
	index, low, comp := s.num, s.aux, s.out
	for v := range n {
		index[v], comp[v] = -1, -1
	}
	stack, path := s.stack[:0], s.path[:0]
	next := int32(0)
	for root := range int32(n) {
		if index[root] >= 0 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		path = append(path, frame{v: root, next: g.Off[root]})
		for len(path) > 0 {
			f := &path[len(path)-1]
			v := f.v
			if f.next < g.Off[v+1] {
				w := g.To[f.next]
				f.next++
				switch {
				case index[w] < 0:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					path = append(path, frame{v: w, next: g.Off[w]})
				case comp[w] < 0:
					// w is visited and in no component yet, so it is on the
					// stack: in v's component or in that of an ancestor of v.
					low[v] = min(low[v], index[w])
				}
				continue
			}
			path = path[:len(path)-1]
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
			if len(path) > 0 {
				u := path[len(path)-1].v
				low[u] = min(low[u], low[v])
			}
		}
	}
	s.stack, s.path = stack, path
	return comp, count
}
