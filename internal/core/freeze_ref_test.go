package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

// referenceFreeze is the canonical freeze of inc's records as comparison
// sorts state it: the parents sorted, each parent's children sorted by name,
// its edge records sorted by (from, to) before the records of one pair
// merge and renumber, and the visible operations sorted by stream position.
// The counting freeze (sgRecords.freeze, Incremental.freeze) must write the
// same graph.
func referenceFreeze(inc *Incremental) *SG {
	r := &inc.sg
	sg := &SG{tr: inc.tr}
	ps := slices.Clone(r.parents)
	slices.Sort(ps)
	for _, p := range ps {
		var kids []tname.TxID
		for t := r.names[p].firstKid; t >= 0; t = r.names[t].next {
			kids = append(kids, t)
		}
		slices.Sort(kids)
		var es []Edge
		for i := r.names[p].firstEdge; i >= 0; i = r.recs[i].next {
			e := r.recs[i]
			es = append(es, Edge{From: int32(e.from), To: int32(e.to), Kind: e.kind})
		}
		slices.SortFunc(es, compareEdges)
		m := 0
		for _, e := range es {
			if m > 0 && es[m-1].From == e.From && es[m-1].To == e.To {
				es[m-1].Kind |= e.Kind
				continue
			}
			es[m] = e
			m++
		}
		es = es[:m]
		for i := range es {
			f, _ := slices.BinarySearch(kids, tname.TxID(es[i].From))
			t, _ := slices.BinarySearch(kids, tname.TxID(es[i].To))
			es[i].From, es[i].To = int32(f), int32(t)
		}
		sg.parents = append(sg.parents, ParentGraph{Parent: p, Children: kids, edges: es})
		sg.kids = append(sg.kids, kids...)
	}
	var ops []pendingOp
	for _, log := range inc.conf.logs {
		ops = append(ops, log...)
	}
	slices.SortFunc(ops, func(a, b pendingOp) int { return cmp.Compare(a.seq, b.seq) })
	for _, op := range ops {
		sg.VisibleOps = append(sg.VisibleOps, event.AccessOp{Tx: op.tx, Obj: op.obj, OV: inc.opVal(op)})
	}
	return sg
}

// checkReference feeds b to an engine and pins its counting freeze to
// referenceFreeze — the same graph, visible operations and DOT text — and
// its Acyclicity to referenceAcyclicity on the reference graph, and so the
// certificate: byte-identical cycle text, or the same
// sibling order, the same views as referenceViews computes by comparison
// sort, and the same certificate text, when β is simple. It reports
// whether SG(β) is cyclic.
func checkReference(t *testing.T, ctx string, tr *tname.Tree, b event.Behavior) bool {
	t.Helper()
	inc := NewIncremental(tr)
	for _, e := range b {
		inc.Append(e)
	}
	got, want := inc.Snapshot(), referenceFreeze(inc)
	if !got.Equal(want) || got.DOT() != want.DOT() {
		t.Fatalf("%s: the counting freeze differs from the reference:\n got %s\nwant %s", ctx, got.DOT(), want.DOT())
	}
	if !slices.Equal(got.VisibleOps, want.VisibleOps) {
		t.Fatalf("%s: visible operations differ:\n got %v\nwant %v", ctx, got.VisibleOps, want.VisibleOps)
	}
	order, cyc := got.Acyclicity()
	wantOrder, wantCyc := referenceAcyclicity(want)
	if (cyc == nil) != (wantCyc == nil) {
		t.Fatalf("%s: cycle %v, reference cycle %v", ctx, cyc, wantCyc)
	}
	if cyc != nil {
		if cyc.Format(tr) != wantCyc.Format(tr) {
			t.Fatalf("%s: cycle certificates differ:\n got %s\nwant %s", ctx, cyc.Format(tr), wantCyc.Format(tr))
		}
		return true
	}
	if !reflect.DeepEqual(order.ByParent, wantOrder.ByParent) {
		t.Fatalf("%s: sibling orders differ", ctx)
	}
	if simple.CheckWellFormed(tr, b) != nil {
		// Views are only defined on simple behaviors, where no access
		// requests commit twice.
		return false
	}
	views, err := new(viewScratch).compute(tr, got, order)
	wantViews, wantErr := referenceViews(tr, want, wantOrder)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: view error %v, reference %v", ctx, err, wantErr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(views, wantViews) {
		t.Fatalf("%s: views differ:\n got %+v\nwant %+v", ctx, views, wantViews)
	}
	c, w := &Certificate{Order: order, Views: views}, &Certificate{Order: wantOrder, Views: wantViews}
	if FormatCertificate(tr, c) != FormatCertificate(tr, w) {
		t.Fatalf("%s: certificate text differs:\n got %s\nwant %s", ctx, FormatCertificate(tr, c), FormatCertificate(tr, w))
	}
	return false
}

// runSource is a behavior read through event.Source the way a packed log
// is read: each Run decodes at most three events into the caller's buffer.
type runSource struct{ b event.Behavior }

func (s runSource) Len() int { return len(s.b) }

func (s runSource) Run(i int, buf []event.Event) []event.Event {
	return buf[:copy(buf[:min(3, len(buf))], s.b[i:])] //sgvet:ignore[behaviorimmutable] buf is the checker's decode scratch
}

// TestCountingFreezeMatchesReference runs checkReference over protocol
// traces, among them broken-protocol runs whose SG is cyclic, where the
// certificate text must be byte-identical, and over event soup.
func TestCountingFreezeMatchesReference(t *testing.T) {
	cyclic := 0
	for _, name := range []string{"moss", "broken"} {
		for seed := int64(0); seed < 20; seed++ {
			tr := tname.NewTree()
			b := protocolTrace(t, name, seed, tr)
			if checkReference(t, fmt.Sprintf("%s seed %d", name, seed), tr, b) {
				cyclic++
			}
		}
	}
	if cyclic == 0 {
		t.Error("no broken-protocol trace was cyclic; the cycle certificate is untested")
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, names := randomSystem(rng)
		checkReference(t, fmt.Sprintf("soup %d", seed), tr, randomEvents(rng, tr, names, 1+rng.Intn(60)))
	}
}

// TestValueViolationThroughSource: a behavior with an inappropriate return
// value, checked from a source that is not a Behavior, materializes β only
// to report it, and reports exactly what Check reports on the Behavior.
func TestValueViolationThroughSource(t *testing.T) {
	violations := 0
	for seed := int64(0); seed < 20; seed++ {
		tr := tname.NewTree()
		b := protocolTrace(t, "moss", seed, tr)
		pb, ok := perturbVisibleValue(Build(tr, b), b)
		if !ok {
			continue
		}
		want := Check(tr, pb)
		got, _ := NewChecker(tr).CheckAgainst(runSource{pb}, nil)
		if !reflect.DeepEqual(got.ValueViolations, want.ValueViolations) || got.Summary(tr) != want.Summary(tr) {
			t.Fatalf("seed %d: through a source %q, on the behavior %q", seed, got.Summary(tr), want.Summary(tr))
		}
		if len(want.ValueViolations) > 0 {
			violations++
		}
	}
	if violations == 0 {
		t.Error("no perturbed trace failed on its values; the lazy β path is untested")
	}
}

// referenceAcyclicity is Acyclicity as it was before the SG certificate
// moved onto graph.Search, with its own Kahn's sort and cycle search; the
// shared search must give the same certificate and the same cycle.
//
// Each SG(β, T) is sorted by Kahn's algorithm over a min-heap frontier, so
// ties always break toward the smallest canonical index and certificates
// are reproducible regardless of edge insertion order; a cyclic graph's
// certificate is the first cycle an iterative depth-first search meets,
// starting from each node in index order and following out-edges in
// ascending order. The graphs share one scratch, sized once for the
// largest, and the orders one backing array.
func referenceAcyclicity(sg *SG) (*SiblingOrder, *Cycle) {
	order := newSiblingOrder(sg.tr, len(sg.parents))
	var s topoScratch
	s.size(sg)
	var all []tname.TxID
	// sg.parents is sorted ascending, so parents are processed in a
	// deterministic order and certificates are reproducible.
	for i := range sg.parents {
		pgr := &sg.parents[i]
		topo := s.sort(pgr)
		if topo == nil {
			cyc := s.findCycle(pgr)
			c := &Cycle{Parent: pgr.Parent, Nodes: make([]tname.TxID, len(cyc)), Kinds: make([]EdgeKind, len(cyc))}
			for i, n := range cyc {
				c.Nodes[i] = pgr.Children[n]
				c.Kinds[i] = pgr.kindAt(n, cyc[(i+1)%len(cyc)])
			}
			return nil, c
		}
		if all == nil {
			all = make([]tname.TxID, len(sg.kids))
			order.flat = all[:0]
		}
		order.flat = order.flat[:len(order.flat)+len(topo)]
		kids := all[:len(topo):len(topo)]
		all = all[len(topo):]
		for i, n := range topo {
			kids[i] = pgr.Children[n]
			order.rank[pgr.Children[n]] = int32(i + 1)
		}
		order.ByParent[pgr.Parent] = kids
	}
	return order, nil
}

// topoScratch is the working memory Acyclicity shares across the parent
// graphs of one SG. off indexes a graph's edges as adjacency runs (CSR):
// node v's out-edges are edges[off[v]:off[v+1]], in ascending target order.
type topoScratch struct {
	off, indeg, heap, order []int32
	stack                   []dfsFrame
}

// dfsFrame is a node on the cycle search's path and the index of the next
// out-edge to follow.
type dfsFrame struct{ v, next int32 }

// size reserves room for the largest parent graph of sg.
func (s *topoScratch) size(sg *SG) {
	n := 0
	for i := range sg.parents {
		n = max(n, len(sg.parents[i].Children))
	}
	s.off = make([]int32, 0, n+1)
	s.indeg = make([]int32, 0, n)
	s.heap = make([]int32, 0, n)
	s.order = make([]int32, 0, n)
}

// index fills s.off for pg, whose edges are sorted by (From, To).
func (s *topoScratch) index(pg *ParentGraph) []int32 {
	n := len(pg.Children)
	off := slices.Grow(s.off[:0], n+1)[:n+1]
	clear(off)
	for _, e := range pg.edges {
		off[e.From+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	s.off = off
	return off
}

// sort returns pg's topological order (Kahn's algorithm over a min-heap
// frontier), or nil when pg has a cycle. The order is s's until the next
// call.
func (s *topoScratch) sort(pg *ParentGraph) []int32 {
	n := len(pg.Children)
	off := s.index(pg)
	indeg := slices.Grow(s.indeg[:0], n)[:n]
	clear(indeg)
	for _, e := range pg.edges {
		indeg[e.To]++
	}
	// Ascending append order is already a valid min-heap.
	h := s.heap[:0]
	for v := range n {
		if indeg[v] == 0 {
			h = append(h, int32(v))
		}
	}
	order := s.order[:0]
	for len(h) > 0 {
		v := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h)
		order = append(order, v)
		for _, e := range pg.edges[off[v]:off[v+1]] {
			if indeg[e.To]--; indeg[e.To] == 0 {
				h = append(h, e.To)
				siftUp(h)
			}
		}
	}
	s.indeg, s.heap, s.order = indeg, h, order
	if len(order) < n {
		return nil
	}
	return order
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

// findCycle returns a directed cycle of pg, in edge order; it must only be
// called when one exists. Iterative DFS with an explicit stack, tracking
// the path, from each unvisited node in index order.
func (s *topoScratch) findCycle(pg *ParentGraph) []int32 {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	n := len(pg.Children)
	off := s.index(pg)
	color := make([]byte, n)
	parent := make([]int32, n)
	for start := range int32(n) {
		if color[start] != white {
			continue
		}
		stack := append(s.stack[:0], dfsFrame{v: start, next: off[start]})
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == off[f.v+1] {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := pg.edges[f.next].To
			f.next++
			switch color[w] {
			case white:
				color[w] = grey
				parent[w] = f.v
				stack = append(stack, dfsFrame{v: w, next: off[w]})
			case grey:
				// Found a back edge f.v -> w; walk parents from f.v to w.
				cyc := []int32{w}
				for u := f.v; u != w; u = parent[u] {
					cyc = append(cyc, u)
				}
				// Reverse so the cycle reads in edge direction.
				slices.Reverse(cyc)
				return cyc
			}
		}
		s.stack = stack
	}
	return nil
}
