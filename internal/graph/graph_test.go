package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	order, cycle := g.TopoSort()
	if cycle != nil || len(order) != 0 {
		t.Error("empty graph must sort trivially")
	}
	if !g.Acyclic() {
		t.Error("empty graph is acyclic")
	}
}

func TestEdgeBookkeeping(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate
	g.AddEdge(1, 2)
	if !slices.Equal(g.adj[0], []int32{1}) || !slices.Equal(g.adj[1], []int32{2}) || len(g.adj[2]) != 0 {
		t.Errorf("adjacency = %v, want [[1] [2] []]: duplicate edges must not duplicate adjacency", g.adj)
	}
}

// hasEdge reports whether from→to is an edge of g.
func hasEdge(g *Graph, from, to int) bool { return slices.Contains(g.adj[from], int32(to)) }

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestTopoSortChain(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 0)
	order, cycle := g.TopoSort()
	if cycle != nil {
		t.Fatal("chain is acyclic")
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	order, cycle := g.TopoSort()
	if cycle != nil {
		t.Fatal("acyclic")
	}
	// Unconstrained nodes come in ascending index order.
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(1, 1)
	if g.Acyclic() {
		t.Error("self-loop is a cycle")
	}
	_, cycle := g.TopoSort()
	if len(cycle) != 1 || cycle[0] != 1 {
		t.Errorf("cycle = %v", cycle)
	}
}

func TestFindCycleValid(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1) // cycle 1→2→3→1
	g.AddEdge(3, 4)
	_, cycle := g.TopoSort()
	if cycle == nil {
		t.Fatal("expected a cycle")
	}
	assertIsCycle(t, g, cycle)
}

func assertIsCycle(t *testing.T, g *Graph, cycle []int) {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatal("empty cycle")
	}
	for i := range cycle {
		j := (i + 1) % len(cycle)
		if !hasEdge(g, cycle[i], cycle[j]) {
			t.Fatalf("cycle %v: missing edge %d->%d", cycle, cycle[i], cycle[j])
		}
	}
}

// randomDAG builds a DAG by only adding forward edges under a random
// permutation, returning the graph and the hidden order.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	perm := rng.Perm(n)
	g := New(n)
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if perm[i] > perm[j] {
			i, j = j, i
		}
		g.AddEdge(i, j)
	}
	return g
}

// TestTopoSortProperty: on random DAGs, TopoSort must return a permutation
// consistent with every edge; on graphs with a planted cycle, it must
// report a genuine cycle.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomDAG(rng, n, n*2)
		order, cycle := g.TopoSort()
		if cycle != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < n; v++ {
			for _, w := range g.adj[v] {
				if pos[v] >= pos[int(w)] {
					return false
				}
			}
		}
		// Plant a guaranteed 2-cycle; TopoSort is pure so re-running the
		// mutated graph is fine.
		if n >= 2 {
			g.AddEdge(order[0], order[1])
			g.AddEdge(order[1], order[0])
			cyc2, cyc := g.TopoSort()
			if cyc == nil {
				_ = cyc2
				return false
			}
			for i := range cyc {
				if !hasEdge(g, cyc[i], cyc[(i+1)%len(cyc)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
