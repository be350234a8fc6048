package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

type pair struct{ from, to tname.TxID }

// allPairsPrecedes is the paper's precedes(β), computed literally as the
// engines did before the frontier: under every parent visible to T0, one
// pair per (reported sibling, later REQUEST_CREATE). It is the reference
// the generating set is compared against and exists only here.
func allPairsPrecedes(tr *tname.Tree, b event.Behavior) map[tname.TxID]map[pair]bool {
	vis := simple.NewVis(tr, b, tname.Root)
	reported := make(map[tname.TxID][]tname.TxID)
	out := make(map[tname.TxID]map[pair]bool)
	for _, e := range b {
		if e.Tx == tname.Root {
			continue
		}
		p := tr.Parent(e.Tx)
		switch e.Kind {
		case event.ReportCommit, event.ReportAbort:
			reported[p] = append(reported[p], e.Tx)
		case event.RequestCreate:
			if !vis.Visible(p) {
				continue
			}
			for _, s := range reported[p] {
				if s == e.Tx {
					continue
				}
				if out[p] == nil {
					out[p] = make(map[pair]bool)
				}
				out[p][pair{s, e.Tx}] = true
			}
		default:
		}
	}
	return out
}

// reach returns the transitive closure of edges as a set of pairs.
func reach(edges map[pair]bool) map[pair]bool {
	succ := make(map[tname.TxID][]tname.TxID)
	for e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	out := make(map[pair]bool)
	for src := range succ {
		stack := append([]tname.TxID(nil), succ[src]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if out[pair{src, v}] {
				continue
			}
			out[pair{src, v}] = true
			stack = append(stack, succ[v]...)
		}
	}
	return out
}

// labelled returns the edges of pg carrying kind, as name pairs.
func labelled(pg *ParentGraph, kind EdgeKind) map[pair]bool {
	out := make(map[pair]bool)
	if pg == nil {
		return out
	}
	for _, e := range pg.Edges() {
		if e.Kind&kind != 0 {
			out[pair{pg.Children[e.From], pg.Children[e.To]}] = true
		}
	}
	return out
}

// checkFrontierClosure holds one behavior — simple or not — to the frontier
// lemma (THEORY.md): per parent the stored precedes edges are a subset of
// the paper's relation with the same transitive closure; adding the
// conflict edges, the stored graph and the paper's graph agree on
// acyclicity; a cycle certificate uses only edges of the paper's graph; and
// the derived sibling order respects every pair of the full relation.
func checkFrontierClosure(t *testing.T, tr *tname.Tree, b event.Behavior) {
	t.Helper()
	ref := allPairsPrecedes(tr, b)
	sg := Build(tr, b)

	parents := make(map[tname.TxID]bool)
	for p := range ref {
		parents[p] = true
	}
	sg.ForEachParent(func(p tname.TxID, _ *ParentGraph) { parents[p] = true })

	for p := range parents {
		pg := sg.Parent(p)
		kept := labelled(pg, EdgePrecedes)
		for e := range kept {
			if !ref[p][e] {
				t.Fatalf("SG(β,%s): stored precedes edge %s→%s is not in precedes(β)",
					tr.Name(p), tr.Name(e.from), tr.Name(e.to))
			}
		}
		got, want := reach(kept), reach(ref[p])
		for e := range want {
			if !got[e] {
				t.Fatalf("SG(β,%s): %s precedes %s but the stored edges do not imply it (%d of %d pairs stored)",
					tr.Name(p), tr.Name(e.from), tr.Name(e.to), len(kept), len(ref[p]))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("SG(β,%s): closure of the stored edges has %d pairs, closure of precedes(β) %d",
				tr.Name(p), len(got), len(want))
		}

		// The paper's graph: stored conflict edges plus every precedes pair.
		if pg == nil {
			t.Fatalf("SG(β,%s) not materialized though precedes(β) relates its children", tr.Name(p))
		}
		full := graph.New(len(pg.Children))
		for e := range labelled(pg, EdgeConflict) {
			full.AddEdge(pg.nodeIndex(e.from), pg.nodeIndex(e.to))
		}
		for e := range ref[p] {
			f, to := pg.nodeIndex(e.from), pg.nodeIndex(e.to)
			if f < 0 || to < 0 {
				t.Fatalf("SG(β,%s): %s or %s is related by precedes(β) but is not a node",
					tr.Name(p), tr.Name(e.from), tr.Name(e.to))
			}
			full.AddEdge(f, to)
		}
		stored := graph.New(len(pg.Children))
		for _, e := range pg.Edges() {
			stored.AddEdge(int(e.From), int(e.To))
		}
		if full.Acyclic() != stored.Acyclic() {
			t.Fatalf("SG(β,%s): paper's graph acyclic=%v, stored graph acyclic=%v",
				tr.Name(p), full.Acyclic(), stored.Acyclic())
		}
	}

	order, cyc := sg.Acyclicity()
	if cyc != nil {
		for i, k := range cyc.Kinds {
			e := pair{cyc.Nodes[i], cyc.Nodes[(i+1)%len(cyc.Nodes)]}
			if k&EdgePrecedes != 0 && !ref[cyc.Parent][e] {
				t.Fatalf("cycle certificate labels %s→%s precedes, which precedes(β) does not contain",
					tr.Name(e.from), tr.Name(e.to))
			}
		}
		return
	}
	orderRespects(t, tr, "Acyclicity", order, ref)
	if res := Check(tr, b); res.OK {
		orderRespects(t, tr, "Check", res.Certificate.Order, ref)
	}
}

// orderRespects fails unless the sibling order ranks both ends of every pair
// of the reference relation, the source first.
func orderRespects(t *testing.T, tr *tname.Tree, ctx string, order *SiblingOrder, ref map[tname.TxID]map[pair]bool) {
	t.Helper()
	for p, pairs := range ref {
		for e := range pairs {
			rf, okF := order.Rank(e.from)
			rt, okT := order.Rank(e.to)
			if !okF || !okT || rf >= rt {
				t.Fatalf("%s: R under %s puts %s (rank %d, ranked %v) not before %s (rank %d, ranked %v) though the paper's relation orders them",
					ctx, tr.Name(p), tr.Name(e.from), rf, okF, tr.Name(e.to), rt, okT)
			}
		}
	}
}

// siblingSoup emits arbitrary interleavings of requests and reports for the
// children of Root and of one nested parent whose COMMIT lands at a random
// position or never — dense in exactly the events the frontier reads, and
// mostly ill-formed (reports before requests, duplicates of both).
func siblingSoup(rng *rand.Rand) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	q := tr.Child(tname.Root, "q")
	var kids []tname.TxID
	for i := 0; i < 2+rng.Intn(5); i++ {
		kids = append(kids, tr.Child(tname.Root, "t"+string(rune('a'+i))))
	}
	kids = append(kids, q)
	for i := 0; i < 2+rng.Intn(5); i++ {
		kids = append(kids, tr.Child(q, "c"+string(rune('a'+i))))
	}
	n := 4 + rng.Intn(40)
	commitAt := rng.Intn(2 * n)
	var b event.Behavior
	for i := 0; i < n; i++ {
		if i == commitAt {
			b = append(b, event.NewEvent(event.Commit, q))
		}
		k := event.RequestCreate
		if rng.Intn(2) == 0 {
			k = event.ReportCommit
		}
		b = append(b, event.NewEvent(k, kids[rng.Intn(len(kids))]))
	}
	return tr, b
}

func TestPrecedesFrontierClosure(t *testing.T) {
	t.Run("protocol", func(t *testing.T) {
		for _, name := range []string{"moss", "broken"} {
			for seed := int64(0); seed < 20; seed++ {
				tr := tname.NewTree()
				checkFrontierClosure(t, tr, protocolTrace(t, name, seed, tr))
			}
		}
	})
	t.Run("soup", func(t *testing.T) {
		for seed := int64(0); seed < 2000; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr, b := siblingSoup(rng)
			checkFrontierClosure(t, tr, b)
			checkDifferential(t, "soup", tr, b)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr, names := randomSystem(rng)
			checkFrontierClosure(t, tr, randomEvents(rng, tr, names, 1+rng.Intn(60)))
		}
	})
}

// FuzzPrecedesFrontierClosure decodes fuzz-discovered traces and holds them
// to the frontier lemma and to streaming ≡ batch. The committed seeds
// include the ill-formed shapes the conventions in frontier's comment are
// about: a report before its request, a duplicate request, and a parent
// that commits after its children's requests were parked.
func FuzzPrecedesFrontierClosure(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, b, err := event.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkFrontierClosure(t, tr, b)
		checkDifferential(t, "fuzz", tr, b)
	})
}

// sequentialTops is a life of n top-level transactions run one after the
// other: each is requested only after the previous one reported.
func sequentialTops(tr *tname.Tree, n int) event.Behavior {
	b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	for i := 0; i < n; i++ {
		t := tr.Child(tname.Root, "t"+strconv.Itoa(i))
		b = append(b,
			event.NewEvent(event.RequestCreate, t), event.NewEvent(event.Create, t),
			event.NewValEvent(event.RequestCommit, t, spec.Nil), event.NewEvent(event.Commit, t),
			event.NewValEvent(event.ReportCommit, t, spec.Nil))
	}
	return b
}

// TestFrontierWidths pins how many precedes edges the engines store.
func TestFrontierWidths(t *testing.T) {
	// n sequential siblings: the chain t0→t1→…, n−1 edges, where the paper's
	// relation has n(n−1)/2.
	t.Run("sequential", func(t *testing.T) {
		const n = 200
		tr := tname.NewTree()
		b := sequentialTops(tr, n)
		sg := Build(tr, b)
		if got := sg.NumEdges(); got != n-1 {
			t.Fatalf("Build: %d edges for %d sequential siblings, want %d", got, n, n-1)
		}
		kids := sg.Parent(tname.Root).Children
		for i := 1; i < n; i++ {
			if k, ok := sg.Parent(tname.Root).HasEdge(kids[i-1], kids[i]); !ok || k != EdgePrecedes {
				t.Fatalf("missing chain edge %d→%d", i-1, i)
			}
		}
		inc := NewIncremental(tr)
		for _, e := range b {
			inc.Append(e)
		}
		if _, _, edges := inc.Counts(); edges != n-1 {
			t.Fatalf("Incremental: %d edges, want %d", edges, n-1)
		}
		if got := len(allPairsPrecedes(tr, b)[tname.Root]); got != n*(n-1)/2 {
			t.Fatalf("reference relation has %d pairs, want %d", got, n*(n-1)/2)
		}
		checkFrontierClosure(t, tr, b)
	})

	// c clients, each running its transactions one after the other, their
	// requests and reports interleaved at random: a request takes at most c
	// edges — the siblings that were open when the latest-requested
	// reported one was requested, and that one.
	t.Run("interleaved", func(t *testing.T) {
		for _, c := range []int{1, 2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(c)))
			tr := tname.NewTree()
			b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
			open := make([]tname.TxID, c)
			for i := range open {
				open[i] = tname.None
			}
			for step := 0; step < 600; step++ {
				k := rng.Intn(c)
				if open[k] == tname.None {
					open[k] = tr.Child(tname.Root, "t"+strconv.Itoa(step))
					b = append(b, event.NewEvent(event.RequestCreate, open[k]))
				} else {
					b = append(b, event.NewEvent(event.Commit, open[k]),
						event.NewValEvent(event.ReportCommit, open[k], spec.Nil))
					open[k] = tname.None
				}
			}
			pg := Build(tr, b).Parent(tname.Root)
			indeg := make(map[int32]int)
			for _, e := range pg.Edges() {
				indeg[e.To]++
			}
			for to, d := range indeg {
				if d > c {
					t.Fatalf("c=%d: %s takes %d precedes edges", c, tr.Name(pg.Children[to]), d)
				}
			}
			checkFrontierClosure(t, tr, b)
		}
	})

	// Requests parked under an uncommitted parent are admitted together
	// when it commits, by which time the parent's frontier has moved on:
	// each must use the window of its own request time.
	t.Run("parked", func(t *testing.T) {
		tr := tname.NewTree()
		q := tr.Child(tname.Root, "q")
		a, bb, c := tr.Child(q, "a"), tr.Child(q, "b"), tr.Child(q, "c")
		ev := event.NewEvent
		b := event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, q), ev(event.Create, q),
			ev(event.RequestCreate, a), ev(event.Commit, a), ev(event.ReportCommit, a),
			ev(event.RequestCreate, bb), ev(event.Commit, bb), ev(event.ReportCommit, bb),
			ev(event.RequestCreate, c), ev(event.Commit, c), ev(event.ReportCommit, c),
		}
		inc := NewIncremental(tr)
		for _, e := range b {
			inc.Append(e)
		}
		if _, _, edges := inc.Counts(); edges != 0 {
			t.Fatalf("%d edges under an uncommitted parent", edges)
		}
		b = append(b, ev(event.RequestCommit, q), ev(event.Commit, q))
		inc.Append(b[len(b)-2])
		inc.Append(b[len(b)-1])
		pg := inc.Snapshot().Parent(q)
		if pg == nil || len(pg.Edges()) != 2 {
			t.Fatalf("SG(β,q) after the late commit: %+v, want the chain a→b→c", pg)
		}
		for _, e := range []pair{{a, bb}, {bb, c}} {
			if _, ok := pg.HasEdge(e.from, e.to); !ok {
				t.Fatalf("missing %s→%s", tr.Name(e.from), tr.Name(e.to))
			}
		}
		sgEqual(t, "parked", inc.Snapshot(), Build(tr, b))
	})
}
