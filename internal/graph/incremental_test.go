package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIncrementalEmpty(t *testing.T) {
	g := NewIncremental(0)
	if g.Len() != 0 || g.NumEdges() != 0 {
		t.Error("empty incremental graph must be empty")
	}
	v := g.AddNode()
	if v != 0 || g.Len() != 1 || g.Pos(0) != 0 {
		t.Errorf("AddNode = %d, Len = %d, Pos = %d", v, g.Len(), g.Pos(0))
	}
}

func TestIncrementalBookkeeping(t *testing.T) {
	g := NewIncremental(3)
	if cyc := g.AddEdge(0, 1); cyc != nil {
		t.Fatalf("acyclic edge reported cycle %v", cyc)
	}
	if cyc := g.AddEdge(0, 1); cyc != nil {
		t.Fatalf("duplicate edge reported cycle %v", cyc)
	}
	if cyc := g.AddEdge(1, 2); cyc != nil {
		t.Fatalf("acyclic edge reported cycle %v", cyc)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
}

// TestIncrementalLabels: AddLabel reports a (pair, label) record as fresh
// exactly once, counts the pair once whatever its labels, and with order
// unset records the edge without reordering.
func TestIncrementalLabels(t *testing.T) {
	g := NewIncremental(3)
	for _, c := range []struct {
		from, to int
		kind     uint8
		fresh    bool
	}{
		{0, 1, 1, true},
		{0, 1, 1, false},
		{0, 1, 2, true},
		{0, 1, 3, false},
		{1, 2, 3, true},
		{1, 2, 2, false},
	} {
		if fresh, cyc := g.AddLabel(c.from, c.to, c.kind, true); fresh != c.fresh || cyc != nil {
			t.Fatalf("AddLabel(%d, %d, %d) = %v, %v; want %v, nil", c.from, c.to, c.kind, fresh, cyc, c.fresh)
		}
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	// An edge against the order, recorded without reordering: it closes a
	// cycle, yet nothing is reported and the order is left alone.
	if fresh, cyc := g.AddLabel(2, 0, 1, false); !fresh || cyc != nil {
		t.Fatalf("unordered AddLabel = %v, %v; want true, nil", fresh, cyc)
	}
	if !g.HasEdge(2, 0) || g.NumEdges() != 3 || g.Pos(2) != 2 || g.Pos(0) != 0 {
		t.Errorf("unordered edge: HasEdge %v, NumEdges %d, pos %d/%d", g.HasEdge(2, 0), g.NumEdges(), g.Pos(2), g.Pos(0))
	}
	if fresh, _ := g.AddLabel(2, 0, 1, true); fresh {
		t.Error("a recorded (pair, label) came back fresh")
	}
}

func TestIncrementalOutOfRange(t *testing.T) {
	g := NewIncremental(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestIncrementalSelfLoop(t *testing.T) {
	g := NewIncremental(2)
	cyc := g.AddEdge(1, 1)
	if len(cyc) != 1 || cyc[0] != 1 {
		t.Errorf("self-loop cycle = %v", cyc)
	}
}

func TestIncrementalTwoCycle(t *testing.T) {
	g := NewIncremental(2)
	if cyc := g.AddEdge(0, 1); cyc != nil {
		t.Fatalf("unexpected cycle %v", cyc)
	}
	cyc := g.AddEdge(1, 0)
	if len(cyc) != 2 || cyc[0] != 0 || cyc[1] != 1 {
		t.Errorf("cycle = %v, want [0 1]", cyc)
	}
}

// orderValid checks that pos is a permutation respecting every edge.
func orderValid(t *testing.T, g *Incremental) {
	t.Helper()
	seen := make([]bool, g.Len())
	for v := 0; v < g.Len(); v++ {
		p := g.Pos(v)
		if p < 0 || p >= g.Len() || seen[p] {
			t.Fatalf("pos is not a permutation: node %d at %d", v, p)
		}
		seen[p] = true
	}
	for v := range g.vs {
		for i := g.vs[v].out; i >= 0; i = g.arcs[i].next {
			w := g.arcs[i].to
			if int(w) == v {
				continue
			}
			if g.Pos(v) >= g.Pos(int(w)) {
				t.Fatalf("edge %d->%d violates order (%d >= %d)",
					v, w, g.Pos(v), g.Pos(int(w)))
			}
		}
	}
}

func TestIncrementalMaintainsOrder(t *testing.T) {
	// Insert a chain against the initial order so every edge forces a
	// reshuffle, then verify the order after each insertion.
	const n = 50
	g := NewIncremental(n)
	for v := n - 1; v > 0; v-- {
		if cyc := g.AddEdge(v, v-1); cyc != nil {
			t.Fatalf("chain edge %d->%d reported cycle %v", v, v-1, cyc)
		}
		orderValid(t, g)
	}
	if g.Pos(n-1) != 0 || g.Pos(0) != n-1 {
		t.Errorf("chain ends at pos %d and %d", g.Pos(n-1), g.Pos(0))
	}
}

// TestIncrementalVsStatic: feeding random edges one at a time, the
// incremental structure must agree with the static checker at every step —
// same acyclicity verdict, and any reported cycle must be a genuine cycle
// closed by the edge just inserted.
func TestIncrementalVsStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		inc := NewIncremental(n)
		static := New(n)
		for k := 0; k < 4*n; k++ {
			from, to := rng.Intn(n), rng.Intn(n)
			static.AddEdge(from, to)
			cyc := inc.AddEdge(from, to)
			if (cyc == nil) != static.Acyclic() {
				return false
			}
			if cyc != nil {
				// Validate the cycle against the edge set, including the
				// closing edge, then stop: the order is stale now.
				for i := range cyc {
					if !hasEdge(static, cyc[i], cyc[(i+1)%len(cyc)]) {
						return false
					}
				}
				return true
			}
		}
		// Stayed acyclic throughout: the final order must respect all edges.
		for v := 0; v < n; v++ {
			for _, w := range static.adj[v] {
				if int(w) != v && inc.Pos(v) >= inc.Pos(int(w)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCycleEdgeOrder: the returned cycle reads in edge direction
// and the freshly inserted edge is the one from the last node to the first.
func TestIncrementalCycleEdgeOrder(t *testing.T) {
	g := NewIncremental(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if cyc := g.AddEdge(e[0], e[1]); cyc != nil {
			t.Fatalf("unexpected cycle %v", cyc)
		}
	}
	cyc := g.AddEdge(3, 0)
	want := []int{0, 1, 2, 3}
	if len(cyc) != len(want) {
		t.Fatalf("cycle = %v, want %v", cyc, want)
	}
	for i := range want {
		if cyc[i] != want[i] {
			t.Fatalf("cycle = %v, want %v", cyc, want)
		}
	}
}

// TestTopoSortDeterministicUnderInsertionOrder: the heap-based TopoSort must
// give the identical order no matter how the same edge set was inserted.
func TestTopoSortDeterministicUnderInsertionOrder(t *testing.T) {
	edges := [][2]int{{0, 3}, {4, 2}, {1, 3}, {4, 0}, {2, 3}}
	var ref []int
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := New(5)
		for _, i := range rng.Perm(len(edges)) {
			g.AddEdge(edges[i][0], edges[i][1])
		}
		order, cycle := g.TopoSort()
		if cycle != nil {
			t.Fatal("acyclic")
		}
		if ref == nil {
			ref = order
			continue
		}
		for i := range ref {
			if order[i] != ref[i] {
				t.Fatalf("trial %d: order %v != %v", trial, order, ref)
			}
		}
	}
}

// combGraph builds a long chain with a burst of leaves hanging off the
// chain's head. Once the chain drains, every leaf sits in the frontier at
// the same time — the shape that made the old sort-per-round frontier
// quadratic.
func combGraph(n int) *Graph {
	g := New(2 * n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	for v := 0; v < n; v++ {
		g.AddEdge(n-1, n+v)
	}
	return g
}

func BenchmarkTopoSortComb(b *testing.B) {
	g := combGraph(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cycle := g.TopoSort(); cycle != nil {
			b.Fatal("comb is acyclic")
		}
	}
}

func BenchmarkIncrementalChain(b *testing.B) {
	// Worst-case insertion order: every edge lands against the current
	// order, forcing a (bounded) reshuffle.
	const n = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewIncremental(n)
		for v := n - 1; v > 0; v-- {
			if cyc := g.AddEdge(v, v-1); cyc != nil {
				b.Fatal("chain is acyclic")
			}
		}
	}
}

// TestArenaRecordsArePointerFree: a server life keeps one Incremental over
// every transaction name for as long as it runs, with a vertex per name and
// an arc and an in-arc per edge, and a search mark per name; none may hold
// anything the garbage collector has to scan.
func TestArenaRecordsArePointerFree(t *testing.T) {
	for _, v := range []any{vertex{}, mark{}, arc{}, inArc{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Int32, reflect.Uint32, reflect.Uint8:
			default:
				t.Errorf("%s.%s is a %s", typ, f.Name, f.Type.Kind())
			}
		}
	}
}
