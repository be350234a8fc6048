//go:build !race

// Allocation-regression tests for the pooled Checker. The race detector
// instruments allocations, so the zero-alloc assertions only hold in
// ordinary builds; the build tag keeps `go test -race` green.

package core

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

func TestCheckerReuseSteadyStateAllocs(t *testing.T) {
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 11, TopLevel: 6, Depth: 1,
		Fanout: 3, Objects: 3, ParProb: 0.6})
	b, _, err := generic.Run(tr, root, generic.Options{Seed: 33, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}

	c := NewChecker(tr)
	c.Check(b) // warm up: grow the pools once

	if n := testing.AllocsPerRun(20, func() { c.Build(b) }); n > 0 {
		t.Errorf("Checker.Build allocates %.1f/op after warm-up, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.StreamPrefix(b) }); n > 0 {
		t.Errorf("Checker.StreamPrefix allocates %.1f/op after warm-up, want 0", n)
	}
	// Check materializes a fresh Result, sibling order and views for the
	// caller, so it cannot be literally zero; everything else — the
	// well-formedness state, the engine, the value replay and the view
	// scratch — is pooled. Pin the measured count, so that a pool lost to
	// a per-call allocation shows.
	const checkAllocs = 33
	if n := testing.AllocsPerRun(20, func() { c.Check(b) }); n > checkAllocs {
		t.Errorf("Checker.Check allocates %.1f/op after warm-up, want at most %d", n, checkAllocs)
	}
}

func TestIncrementalResetSteadyStateAllocs(t *testing.T) {
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 19, TopLevel: 5, Depth: 1,
		Fanout: 3, Objects: 3, ParProb: 0.5})
	b, _, err := generic.Run(tr, root, generic.Options{Seed: 57, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}

	inc := NewIncremental(tr)
	feed := func() {
		inc.Reset()
		for _, e := range b {
			if cyc := inc.Append(e); cyc != nil {
				t.Fatal("behavior unexpectedly rejected")
			}
		}
	}
	feed() // warm up
	if n := testing.AllocsPerRun(20, feed); n > 0 {
		t.Errorf("Incremental Reset+Append allocates %.1f/op after warm-up, want 0", n)
	}
}

// youngStream is a life shaped like the benchmark's young workload: n
// top-level transactions run one after the other, each making four accesses
// to 256 registers, half of them reads and one in four inside a child.
func youngStream(n int) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	rng := rand.New(rand.NewSource(1))
	objs := make([]tname.ObjID, 256)
	state := make([]spec.Value, len(objs))
	for i := range objs {
		objs[i] = tr.AddObject("x"+strconv.Itoa(i), spec.Register{})
		state[i] = spec.Int(0)
	}
	b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	for i := 0; i < n; i++ {
		top := tr.Child(tname.Root, "t"+strconv.Itoa(i))
		b = append(b, event.NewEvent(event.RequestCreate, top), event.NewEvent(event.Create, top))
		for j := 0; j < 4; j++ {
			home := top
			if j == 3 {
				home = tr.Child(top, "c")
				b = append(b, event.NewEvent(event.RequestCreate, home), event.NewEvent(event.Create, home))
			}
			x := rng.Intn(len(objs))
			op, v := spec.Op{Kind: spec.OpRead}, state[x]
			if j%2 == 0 {
				op, v = spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))}, spec.OK
				state[x] = op.Arg
			}
			a := tr.Access(home, "a"+strconv.Itoa(j), objs[x], op)
			b = append(b, event.NewEvent(event.RequestCreate, a), event.NewEvent(event.Create, a),
				event.NewValEvent(event.RequestCommit, a, v), event.NewEvent(event.Commit, a),
				event.NewValEvent(event.ReportCommit, a, v))
			if home != top {
				b = append(b, event.NewValEvent(event.RequestCommit, home, spec.Nil),
					event.NewEvent(event.Commit, home), event.NewValEvent(event.ReportCommit, home, spec.Nil))
			}
		}
		b = append(b, event.NewValEvent(event.RequestCommit, top, spec.Nil),
			event.NewEvent(event.Commit, top), event.NewValEvent(event.ReportCommit, top, spec.Nil))
	}
	return tr, b
}

// TestIncrementalRetainedBytesPerAccess bounds the heap a fresh engine
// keeps per access after a young-shaped life, which is what a server life
// holds on to for as long as it runs. The bound lies midway between the
// 1 022 bytes of the engine whose records held an AccessOp, in three places,
// and deduplicated edges through a map, and the 460 of pointer-free records.
func TestIncrementalRetainedBytesPerAccess(t *testing.T) {
	const n = 250
	tr, b := youngStream(n)
	// Two collections empty sync.Pool's victim caches too, so the live heap
	// read after them moves only with what the test itself keeps.
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	inc := NewIncremental(tr)
	for _, e := range b {
		if inc.Append(e) != nil {
			t.Fatal("young-shaped life rejected")
		}
	}
	after := live()
	runtime.KeepAlive(inc)
	runtime.KeepAlive(b)
	perAccess := float64(after-before) / (4 * n)
	t.Logf("%.1f retained bytes per access", perAccess)
	if perAccess > 740 {
		t.Errorf("the engine retains %.1f bytes per access, want at most 740", perAccess)
	}
}

// nestedSequential is a life of n top-level transactions run one after the
// other, each running three empty subtransactions one after the other: every
// top is a parent graph of its own (two precedes edges) beside T0's chain,
// and the behavior has no access, so what a check allocates beyond a
// constant is what it pays per parent graph, name and edge.
func nestedSequential(n int) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	b := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	run := func(t tname.TxID, body func()) {
		b = append(b, event.NewEvent(event.RequestCreate, t), event.NewEvent(event.Create, t))
		body()
		b = append(b, event.NewValEvent(event.RequestCommit, t, spec.Nil), event.NewEvent(event.Commit, t),
			event.NewValEvent(event.ReportCommit, t, spec.Nil))
	}
	for i := 0; i < n; i++ {
		top := tr.Child(tname.Root, "t"+strconv.Itoa(i))
		run(top, func() {
			for j := 0; j < 3; j++ {
				run(tr.Child(top, "c"+strconv.Itoa(j)), func() {})
			}
		})
	}
	return tr, b
}

// TestOneShotCheckAllocsPerParent pins what a fresh one-shot Check
// allocates: a fixed number of arrays per engine and per result, each
// sized once by the counting pass or the freeze, never an object per
// parent graph. Four times the top-level transactions — four times the
// parent graphs, names and edges — may only add the reallocations of the
// few arrays no count sizes.
func TestOneShotCheckAllocsPerParent(t *testing.T) {
	allocs := func(n int) (float64, int) {
		tr, b := nestedSequential(n)
		res := Check(tr, b)
		if !res.OK {
			t.Fatal(res.Summary(tr))
		}
		return testing.AllocsPerRun(10, func() { Check(tr, b) }), res.SG.NumParents()
	}
	small, ps := allocs(16)
	large, pl := allocs(64)
	t.Logf("fresh Check: %.0f allocs at %d parent graphs, %.0f at %d", small, ps, large, pl)
	const base, perQuadrupling = 48, 2
	if small > base {
		t.Errorf("a fresh Check of %d parent graphs allocates %.0f times, want at most %d", ps, small, base)
	}
	if large-small > perQuadrupling {
		t.Errorf("%d more parent graphs cost a fresh Check %.0f more allocations, want at most %d",
			pl-ps, large-small, perQuadrupling)
	}
}
