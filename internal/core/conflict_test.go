package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/graph"
	"nestedsg/internal/locking"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// allPairsConflict is the paper's conflict(β), computed literally as the
// engines did before the conflict frontier: per object, one pair for every
// two conflicting operations visible to T0, directed by REQUEST_COMMIT
// order, at the children of the accesses' least common ancestor. It is the
// reference the generating set is compared against and exists only here.
func allPairsConflict(tr *tname.Tree, b event.Behavior) map[tname.TxID]map[pair]bool {
	vis := simple.NewVis(tr, b, tname.Root)
	byObj := make(map[tname.ObjID][]event.AccessOp)
	for _, e := range b {
		if e.Kind != event.RequestCommit || !tr.IsAccess(e.Tx) || !vis.Visible(e.Tx) {
			continue
		}
		x := tr.AccessObject(e.Tx)
		byObj[x] = append(byObj[x], event.AccessOp{Tx: e.Tx, Obj: x,
			OV: spec.OpVal{Op: tr.AccessOp(e.Tx), Val: e.Val}})
	}
	out := make(map[tname.TxID]map[pair]bool)
	for x, ops := range byObj {
		sp := tr.Spec(x)
		for j, cur := range ops {
			for _, prev := range ops[:j] {
				if prev.Tx == cur.Tx || !sp.Conflicts(prev.OV, cur.OV) {
					continue
				}
				lca := tr.LCA(prev.Tx, cur.Tx)
				if out[lca] == nil {
					out[lca] = make(map[pair]bool)
				}
				out[lca][pair{tr.ChildAncestor(lca, prev.Tx), tr.ChildAncestor(lca, cur.Tx)}] = true
			}
		}
	}
	return out
}

// paperCyclic reports whether the paper's SG(β) — every conflict pair and
// every precedes pair — has a cycle in some parent graph.
func paperCyclic(tr *tname.Tree, b event.Behavior) bool {
	conf, prec := allPairsConflict(tr, b), allPairsPrecedes(tr, b)
	parents := make(map[tname.TxID]bool)
	for p := range conf {
		parents[p] = true
	}
	for p := range prec {
		parents[p] = true
	}
	for p := range parents {
		index := make(map[tname.TxID]int)
		node := func(t tname.TxID) int {
			if _, ok := index[t]; !ok {
				index[t] = len(index)
			}
			return index[t]
		}
		var edges []pair
		for _, rel := range []map[pair]bool{conf[p], prec[p]} {
			for e := range rel {
				node(e.from)
				node(e.to)
				edges = append(edges, e)
			}
		}
		g := graph.New(len(index))
		for _, e := range edges {
			g.AddEdge(index[e.from], index[e.to])
		}
		if !g.Acyclic() {
			return true
		}
	}
	return false
}

// checkConflictClosure holds one behavior — simple or not — to the conflict
// frontier lemma (THEORY.md) at its prefixes: the engine's stored conflict
// edges are a subset of the paper's relation; the engine is cyclic exactly
// when the paper's graph is, hence rejects at the same first event; and
// while the stored graph is acyclic every pair of the paper's relation is
// implied by stored conflict edges of the same parent graph. On the whole
// behavior the derived sibling order must respect every pair of the full
// relation. Short behaviors are checked at every prefix, long ones at a
// stride; the first bad index is compared exactly either way, by bisecting
// the (monotone) reference.
func checkConflictClosure(t *testing.T, tr *tname.Tree, b event.Behavior) {
	t.Helper()
	stride := 1 + len(b)/150
	inc := NewIncremental(tr)
	for i, e := range b {
		inc.Append(e)
		if i%stride != 0 && i != len(b)-1 {
			continue
		}
		prefix := b[:i+1]
		ref := allPairsConflict(tr, prefix)
		sg := inc.Snapshot()
		sg.ForEachParent(func(p tname.TxID, pg *ParentGraph) {
			for e := range labelled(pg, EdgeConflict) {
				if !ref[p][e] {
					t.Fatalf("prefix %d, SG(β,%s): stored conflict edge %s→%s is not in conflict(β)",
						i+1, tr.Name(p), tr.Name(e.from), tr.Name(e.to))
				}
			}
		})
		cyc, _ := inc.Rejected()
		if want := paperCyclic(tr, prefix); (cyc != nil) != want {
			t.Fatalf("prefix %d: engine cyclic=%v, paper's graph cyclic=%v", i+1, cyc != nil, want)
		}
		if cyc != nil {
			continue
		}
		for p, pairs := range ref {
			got := reach(labelled(sg.Parent(p), EdgeConflict))
			for e := range pairs {
				if !got[e] {
					t.Fatalf("prefix %d, SG(β,%s): %s conflicts with a later %s but the stored conflict edges do not imply it",
						i+1, tr.Name(p), tr.Name(e.from), tr.Name(e.to))
				}
			}
		}
	}

	// Same shortest bad prefix: the reference is monotone over prefixes, so
	// its first cyclic one is found by bisection.
	want := -1
	if paperCyclic(tr, b) {
		lo, hi := 0, len(b) // first cyclic prefix length is in (lo, hi]
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; paperCyclic(tr, b[:mid]) {
				hi = mid
			} else {
				lo = mid
			}
		}
		want = hi - 1
	}
	if _, at := inc.Rejected(); at != want {
		t.Fatalf("engine rejects at event %d, the paper's graph first turns cyclic at event %d", at, want)
	}
	if want >= 0 {
		return
	}

	ref := allPairsConflict(tr, b)
	order, cyc := Build(tr, b).Acyclicity()
	if cyc != nil {
		t.Fatalf("Build is cyclic though the engine accepted every prefix: %+v", cyc)
	}
	orderRespects(t, tr, "Acyclicity", order, ref)
	if res := Check(tr, b); res.OK {
		orderRespects(t, tr, "Check", res.Certificate.Order, ref)
	}
}

// accessSoup emits REQUEST_COMMITs of accesses scattered over a small name
// tree, interleaved with the COMMITs that make them visible in every
// possible order — early, late (splicing an old operation in front of ones
// admitted before it), twice, or never — on one register and one object of
// a random type. Return values are whatever the operation would return on
// a fresh object: the construction does not require appropriate ones.
func accessSoup(rng *rand.Rand) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	specs := spec.All()
	objs := []tname.ObjID{tr.AddObject("r", spec.Register{}),
		tr.AddObject("o", specs[rng.Intn(len(specs))])}
	var inner, accs []tname.TxID
	for i := 0; i < 2+rng.Intn(3); i++ {
		top := tr.Child(tname.Root, "t"+strconv.Itoa(i))
		inner = append(inner, top)
		homes := []tname.TxID{top}
		for j := 0; j < rng.Intn(3); j++ {
			sub := tr.Child(top, "s"+strconv.Itoa(j))
			inner = append(inner, sub)
			homes = append(homes, sub)
		}
		for j := 0; j < 1+rng.Intn(5); j++ {
			x := objs[rng.Intn(2)]
			if rng.Intn(3) > 0 {
				x = objs[0]
			}
			accs = append(accs, tr.Access(homes[rng.Intn(len(homes))], "a"+strconv.Itoa(j), x, tr.Spec(x).RandOp(rng)))
		}
	}
	var b event.Behavior
	for i := 0; i < 10+rng.Intn(50); i++ {
		switch rng.Intn(5) {
		case 0, 1:
			a := accs[rng.Intn(len(accs))]
			sp := tr.Spec(tr.AccessObject(a))
			_, v := sp.Apply(sp.Init(), tr.AccessOp(a))
			b = append(b, event.NewValEvent(event.RequestCommit, a, v))
		case 2:
			b = append(b, event.NewEvent(event.Commit, accs[rng.Intn(len(accs))]))
		default:
			b = append(b, event.NewEvent(event.Commit, inner[rng.Intn(len(inner))]))
		}
	}
	return tr, b
}

// brokenLockingTrace runs one hot register under a read/update locking
// automaton that ignores read locks — the negative control of the
// repository's benchmark.
func brokenLockingTrace(t *testing.T, seed int64, tr *tname.Tree) event.Behavior {
	t.Helper()
	root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 5, Depth: 1,
		Fanout: 3, Objects: 1, HotProb: 1, ParProb: 0.8, ReadRatio: 0.4})
	b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 5,
		Protocol: locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return b
}

func TestConflictFrontierClosure(t *testing.T) {
	t.Run("protocol", func(t *testing.T) {
		for _, name := range []string{"moss", "broken"} {
			for seed := int64(0); seed < 20; seed++ {
				tr := tname.NewTree()
				checkConflictClosure(t, tr, protocolTrace(t, name, seed, tr))
			}
		}
	})
	t.Run("broken locking", func(t *testing.T) {
		cyclic := 0
		for seed := int64(0); seed < 30; seed++ {
			tr := tname.NewTree()
			b := brokenLockingTrace(t, seed, tr)
			checkConflictClosure(t, tr, b)
			if paperCyclic(tr, b) {
				cyclic++
			}
		}
		if cyclic == 0 {
			t.Error("no cyclic trace: the rejecting side is untested")
		}
	})
	t.Run("typed", func(t *testing.T) {
		for i, name := range []string{"counter", "account", "set", "appendlog", "queue", "mixed"} {
			for seed := int64(0); seed < 6; seed++ {
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: seed + int64(10*i), TopLevel: 6, Depth: 2,
					Fanout: 3, Objects: 2, SpecName: name, HotProb: 0.7, ParProb: 0.6})
				b, _, err := generic.Run(tr, root, generic.Options{Seed: seed, Protocol: locking.Protocol{}})
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				checkConflictClosure(t, tr, b)
			}
		}
	})
	t.Run("soup", func(t *testing.T) {
		cyclic := 0
		for seed := int64(0); seed < 3000; seed++ {
			tr, b := accessSoup(rand.New(rand.NewSource(seed)))
			checkConflictClosure(t, tr, b)
			checkDifferential(t, "soup", tr, b)
			if paperCyclic(tr, b) {
				cyclic++
			}
		}
		if cyclic < 100 {
			t.Errorf("only %d cyclic soups of 3000: the generator no longer reaches the rejecting side", cyclic)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr, names := randomSystem(rng)
			checkConflictClosure(t, tr, randomEvents(rng, tr, names, 1+rng.Intn(60)))
		}
	})
}

// FuzzConflictFrontierClosure decodes fuzz-discovered traces and holds them
// to the conflict frontier lemma and to streaming ≡ batch. The committed
// seeds are the shapes the lemma's cases are about: an access that becomes
// visible late and is spliced between two writes, an aborted writer between
// two visible ones, a chain W₁ → X → W₂ whose middle operation (a read, and
// a write) lies outside lca(W₁, W₂)'s subtree, a cycle produced by
// locking.BrokenProtocol, a queue, whose wall depends on a returned value,
// and the two shapes of the read-only admission: a register read 50 times
// and then written, and a write admitted late into the middle of a run of
// reads, with one read of the run admitted after it.
func FuzzConflictFrontierClosure(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, b, err := event.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkConflictClosure(t, tr, b)
		checkDifferential(t, "fuzz", tr, b)
	})
}

// registerLife is a life of n top-level transactions run one after the
// other on one register of type sp, each a single access — a write unless
// reads(i).
func registerLife(tr *tname.Tree, sp spec.Spec, n int, read func(i int) bool) event.Behavior {
	x := tr.AddObject("x", sp)
	b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	for i := 0; i < n; i++ {
		top := tr.Child(tname.Root, "t"+strconv.Itoa(i))
		op, val := spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))}, spec.OK
		if read(i) {
			op, val = spec.Op{Kind: spec.OpRead}, spec.Int(0)
		}
		a := tr.Access(top, "a", x, op)
		b = append(b,
			event.NewEvent(event.RequestCreate, top), event.NewEvent(event.Create, top),
			event.NewEvent(event.RequestCreate, a), event.NewEvent(event.Create, a),
			event.NewValEvent(event.RequestCommit, a, val), event.NewEvent(event.Commit, a),
			event.NewValEvent(event.ReportCommit, a, val),
			event.NewValEvent(event.RequestCommit, top, spec.Nil), event.NewEvent(event.Commit, top),
			event.NewValEvent(event.ReportCommit, top, spec.Nil))
	}
	return b
}

// TestConflictFrontierWidths pins how many conflict edges the engine stores.
func TestConflictFrontierWidths(t *testing.T) {
	conflicts := func(sg *SG) int {
		n := 0
		sg.ForEachParent(func(_ tname.TxID, pg *ParentGraph) { n += len(labelled(pg, EdgeConflict)) })
		return n
	}
	// n writers in a row: the chain, n−1 edges, where conflict(β) has
	// n(n−1)/2.
	t.Run("writes", func(t *testing.T) {
		const n = 200
		tr := tname.NewTree()
		b := registerLife(tr, spec.Register{}, n, func(int) bool { return false })
		if got := conflicts(Build(tr, b)); got != n-1 {
			t.Fatalf("%d conflict edges for %d sequential writers, want %d", got, n, n-1)
		}
		if got := len(allPairsConflict(tr, b)[tname.Root]); got != n*(n-1)/2 {
			t.Fatalf("reference relation has %d pairs, want %d", got, n*(n-1)/2)
		}
	})
	// Blocks of one write and k reads: a read takes one edge, from the last
	// write; a write one per reader since the previous write, and one from
	// that write.
	t.Run("reads between writes", func(t *testing.T) {
		const blocks, k = 20, 4
		tr := tname.NewTree()
		b := registerLife(tr, spec.Register{}, blocks*(k+1), func(i int) bool { return i%(k+1) != 0 })
		want := blocks*k + (blocks-1)*(k+1)
		if got := conflicts(Build(tr, b)); got != want {
			t.Fatalf("%d conflict edges, want %d", got, want)
		}
	})
	// A type without walls keeps the all-pairs scan: every get conflicts
	// with every increment, on whichever side.
	t.Run("counter", func(t *testing.T) {
		const n = 40
		tr := tname.NewTree()
		x := tr.AddObject("c", spec.Counter{})
		b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
		for i := 0; i < n; i++ {
			top := tr.Child(tname.Root, "t"+strconv.Itoa(i))
			op, val := spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(1)}, spec.OK
			if i%2 == 1 {
				op, val = spec.Op{Kind: spec.OpGet}, spec.Int(int64(i/2+1))
			}
			a := tr.Access(top, "a", x, op)
			b = append(b, event.NewEvent(event.RequestCreate, top),
				event.NewValEvent(event.RequestCommit, a, val), event.NewEvent(event.Commit, a),
				event.NewEvent(event.Commit, top))
		}
		if got, want := conflicts(Build(tr, b)), len(allPairsConflict(tr, b)[tname.Root]); got != want || want != n/2*(n/2) {
			t.Fatalf("%d conflict edges, reference %d, want %d", got, want, n/2*(n/2))
		}
	})
}

// countingSpec counts the Conflicts calls made on the type it wraps.
type countingSpec struct {
	spec.Spec
	calls *int
}

func (c countingSpec) Conflicts(a, b spec.OpVal) bool {
	*c.calls++
	return c.Spec.Conflicts(a, b)
}

// TestReadOnlyAdmissionStaysFlat: a read is compared only with the updates
// of its window. A register written once and then read n times costs one
// Conflicts call per read, against the write; comparing each read with every
// read since the write cost one call per earlier read.
func TestReadOnlyAdmissionStaysFlat(t *testing.T) {
	const n = 5000
	calls := 0
	tr := tname.NewTree()
	b := registerLife(tr, countingSpec{Spec: spec.Register{}, calls: &calls}, n+1, func(i int) bool { return i > 0 })
	inc := NewIncremental(tr)
	worst := 0
	for _, e := range b {
		before := calls
		inc.Append(e)
		worst = max(worst, calls-before)
	}
	if worst > 1 {
		t.Errorf("an admission made %d Conflicts calls over %d reads, want at most 1", worst, n)
	}
	if got := len(labelled(inc.Snapshot().Parent(tname.Root), EdgeConflict)); got != n {
		t.Errorf("%d conflict edges, want %d: one from the write to each read", got, n)
	}
}

// TestAccessRecordIsPointerFree: the engine keeps a pendingOp per access in
// up to two per-object logs, and parked items, per-name state, child links,
// edge records and report lists in arrays as long as the stream; these
// records must stay small and hold nothing the garbage collector has to
// scan. (The Pearce–Kelly order's vertices and arcs are held to the same
// rule in internal/graph.)
func TestAccessRecordIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(pendingOp{}); n > 24 {
		t.Errorf("pendingOp is %d bytes, want at most 24", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	for _, v := range []any{pendingOp{}, pendingReq{}, txState{}, parkedItem[pendingOp]{}, parkedItem[pendingReq]{},
		nameRec{}, edgeRec{}, repList{}, repEnt{}, reqMark{}} {
		walk(reflect.TypeOf(v).String(), reflect.TypeOf(v))
	}
}
