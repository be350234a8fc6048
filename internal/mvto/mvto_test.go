package mvto

import (
	"math/rand"
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/generic"
	"nestedsg/internal/oracle"
	"nestedsg/internal/serial"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// fixture: two flat transactions over register x.
type fix struct {
	tr             *tname.Tree
	x              tname.ObjID
	t1, t2         tname.TxID
	m              *MVTO
	clock          *Clock
	r1, w1, r2, w2 tname.TxID
}

func newFix(t *testing.T) *fix {
	t.Helper()
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	f := &fix{tr: tr, x: x, clock: NewClock(tr)}
	f.t1 = tr.Child(tname.Root, "t1")
	f.t2 = tr.Child(tname.Root, "t2")
	f.r1 = tr.Access(f.t1, "r1", x, spec.Op{Kind: spec.OpRead})
	f.w1 = tr.Access(f.t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
	f.r2 = tr.Access(f.t2, "r2", x, spec.Op{Kind: spec.OpRead})
	f.w2 = tr.Access(f.t2, "w2", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)})
	f.m = New(tr, x, f.clock)
	return f
}

func TestPathCmp(t *testing.T) {
	cases := []struct {
		a, b Path
		want int
	}{
		{nil, nil, 0},
		{nil, Path{1}, -1},
		{Path{1}, nil, 1},
		{Path{1, 2}, Path{1, 2}, 0},
		{Path{1, 2}, Path{1, 3}, -1},
		{Path{2}, Path{1, 9}, 1},
		{Path{1}, Path{1, 1}, -1}, // a prefix precedes its extensions
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if (Path{1, 2}).String() != "ts.1.2" {
		t.Errorf("String = %s", Path{1, 2})
	}
}

func TestClockAssignsHierarchically(t *testing.T) {
	tr := tname.NewTree()
	a := tr.Child(tname.Root, "a")
	b := tr.Child(tname.Root, "b")
	a1 := tr.Child(a, "a1")
	a2 := tr.Child(a, "a2")
	c := NewClock(tr)
	// First activity order: a2 before a1.
	pa2 := c.PathTS(a2)
	pa1 := c.PathTS(a1)
	pb := c.PathTS(b)
	if pa2.Cmp(pa1) >= 0 {
		t.Errorf("a2 was active first: %v vs %v", pa2, pa1)
	}
	if c.PathTS(a).Cmp(pb) >= 0 {
		t.Errorf("a (assigned via a2) precedes b: %v vs %v", c.PathTS(a), pb)
	}
	if got := c.PathTS(a2); got.Cmp(pa2) != 0 {
		t.Error("timestamps must be stable")
	}
	if len(pa1) != 2 || len(pb) != 1 {
		t.Errorf("path lengths: %v %v", pa1, pb)
	}
}

func TestReadInitialVersion(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.r1)
	v, ok := f.m.TryRequestCommit(f.r1)
	if !ok || v != spec.Int(0) {
		t.Fatalf("read = %v, %v", v, ok)
	}
}

func TestReadSkipsLaterTimestampVersions(t *testing.T) {
	f := newFix(t)
	// t1 first (path ts.1), then t2 (ts.2) writes; t1's read must NOT see
	// t2's version even after t2 commits — multiversion time travel.
	f.m.Create(f.r1) // t1 = ts.1
	f.m.Create(f.w2) // t2 = ts.2
	if _, ok := f.m.TryRequestCommit(f.w2); !ok {
		t.Fatal("w2 grant")
	}
	f.m.InformCommit(f.w2)
	f.m.InformCommit(f.t2)
	v, ok := f.m.TryRequestCommit(f.r1)
	if !ok || v != spec.Int(0) {
		t.Fatalf("t1's read = %v, %v; must see the initial version, not t2's", v, ok)
	}
}

func TestReadWaitsForUncommittedEarlierWriter(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1) // t1 = ts.1
	if _, ok := f.m.TryRequestCommit(f.w1); !ok {
		t.Fatal("w1 grant")
	}
	f.m.Create(f.r2) // t2 = ts.2
	if _, ok := f.m.TryRequestCommit(f.r2); ok {
		t.Fatal("r2 must wait for t1's commit chain")
	}
	blk := f.m.Blockers([]tname.TxID{f.r2}, nil)
	if len(blk) != 1 || blk[0] != f.w1 {
		t.Fatalf("blockers = %v", blk)
	}
	f.m.InformCommit(f.w1)
	if _, ok := f.m.TryRequestCommit(f.r2); ok {
		t.Fatal("r2 must also wait for t1 itself")
	}
	f.m.InformCommit(f.t1)
	v, ok := f.m.TryRequestCommit(f.r2)
	if !ok || v != spec.Int(1) {
		t.Fatalf("r2 = %v, %v", v, ok)
	}
}

func TestWriteTooLateDemandsAbort(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1) // t1 = ts.1
	f.m.Create(f.r2) // t2 = ts.2
	// t2 reads the initial version before t1 writes.
	if v, ok := f.m.TryRequestCommit(f.r2); !ok || v != spec.Int(0) {
		t.Fatalf("r2 = %v, %v", v, ok)
	}
	// t1's write at ts.1.* is now too late: a ts.2 reader observed ts.0.
	if _, ok := f.m.TryRequestCommit(f.w1); ok {
		t.Fatal("too-late write must not be granted")
	}
	if !f.m.ShouldAbort(f.w1) {
		t.Fatal("ShouldAbort must demand the restart")
	}
	if f.m.ShouldAbort(f.r1) {
		t.Fatal("reads are never too late")
	}
}

func TestOwnWritesVisibleAfterAccessCommit(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	if _, ok := f.m.TryRequestCommit(f.w1); !ok {
		t.Fatal("w1 grant")
	}
	f.m.Create(f.r1)
	// Like Moss: a sibling's write becomes visible once the writing access
	// commits (up to their lca, which is t1).
	if _, ok := f.m.TryRequestCommit(f.r1); ok {
		t.Fatal("r1 must wait for w1's commit inform")
	}
	f.m.InformCommit(f.w1)
	v, ok := f.m.TryRequestCommit(f.r1)
	if !ok || v != spec.Int(1) {
		t.Fatalf("own read = %v, %v", v, ok)
	}
}

// TestInnerSiblingIsolation is the regression for the hierarchical scheme:
// a subtransaction that wrote must not observe a sibling's later write.
func TestInnerSiblingIsolation(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	top := tr.Child(tname.Root, "top")
	s1 := tr.Child(top, "s1")
	s2 := tr.Child(top, "s2")
	w35 := tr.Access(s1, "w35", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(35)})
	rd := tr.Access(s1, "rd", x, spec.Op{Kind: spec.OpRead})
	w13 := tr.Access(s2, "w13", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(13)})

	clock := NewClock(tr)
	m := New(tr, x, clock)
	m.Create(w35) // s1 = ts.1.1
	if _, ok := m.TryRequestCommit(w35); !ok {
		t.Fatal("w35 grant")
	}
	m.InformCommit(w35)
	m.Create(w13) // s2 = ts.1.2
	if _, ok := m.TryRequestCommit(w13); !ok {
		t.Fatal("w13 grant")
	}
	m.InformCommit(w13)
	m.InformCommit(s2)
	// rd is in s1 (ts.1.1.*): its candidate is w35 (ts.1.1.1), NOT s2's
	// w13 (ts.1.2.1), which lies above s1's whole interval.
	m.Create(rd)
	v, ok := m.TryRequestCommit(rd)
	if !ok || v != spec.Int(35) {
		t.Fatalf("rd = %v, %v; inner sibling isolation violated", v, ok)
	}
}

func TestAbortDiscardsVersions(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	if _, ok := f.m.TryRequestCommit(f.w1); !ok {
		t.Fatal("w1 grant")
	}
	f.m.InformAbort(f.t1)
	if len(f.m.Versions()) != 1 {
		t.Fatalf("versions = %v", f.m.Versions())
	}
	f.m.Create(f.r2)
	if v, ok := f.m.TryRequestCommit(f.r2); !ok || v != spec.Int(0) {
		t.Fatalf("r2 after abort = %v, %v", v, ok)
	}
}

func TestAuditAndPanicOnWrongType(t *testing.T) {
	f := newFix(t)
	if err := f.m.Audit(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-register object must panic")
		}
	}()
	tr := tname.NewTree()
	c := tr.AddObject("c", spec.Counter{})
	New(tr, c, NewClock(tr))
}

// TestMVTORunsAreSeriallyCorrect is the E13 positive claim: generic-system
// runs under MVTO are serially correct for T0 — certified by the
// exhaustive oracle, and witnessed under the oracle's order — even though
// the event-order SG construction may flag them.
func TestMVTORunsAreSeriallyCorrect(t *testing.T) {
	sgFlagged := 0
	for seed := int64(0); seed < 15; seed++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 4, Depth: 1,
			Fanout: 2, Objects: 2, HotProb: 0.8, ParProb: 0.9, ReadRatio: 0.6})
		b, st, err := generic.Run(tr, root, generic.Options{Seed: seed*13 + 5,
			Protocol: NewProtocol(tr), AuditObjects: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := simple.CheckWellFormed(tr, b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := core.Check(tr, b)
		if !res.OK {
			sgFlagged++
		}
		or := oracle.Search(tr, b, 500000)
		if or.Outcome != oracle.Found {
			t.Fatalf("seed %d: oracle outcome %s — MVTO run not certifiable (victims=%d, protoAborts=%d)\n%s",
				seed, or.Outcome, st.DeadlockVictims, st.ProtocolAborts, b.Serial().Format(tr))
		}
		gamma, err := serial.Witness(tr, root, b, or.Order)
		if err != nil {
			t.Fatalf("seed %d: witness under oracle order: %v", seed, err)
		}
		if err := serial.Validate(tr, gamma); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("event-order SG checker flagged %d/15 correct MVTO runs (the §7 gap)", sgFlagged)
}

// TestMVTOWithRestarts drives contention heavy enough to force protocol
// aborts and still demands oracle-certified serial correctness.
func TestMVTOWithRestarts(t *testing.T) {
	sawRestart := false
	for seed := int64(0); seed < 20; seed++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 5, Depth: 0,
			Fanout: 3, Objects: 1, HotProb: 1, ReadRatio: 0.5})
		b, st, err := generic.Run(tr, root, generic.Options{Seed: seed*31 + 1,
			Protocol: NewProtocol(tr)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.ProtocolAborts > 0 {
			sawRestart = true
		}
		or := oracle.Search(tr, b, 500000)
		if or.Outcome != oracle.Found {
			t.Fatalf("seed %d: oracle outcome %s (protoAborts=%d)", seed, or.Outcome, st.ProtocolAborts)
		}
	}
	if !sawRestart {
		t.Error("expected at least one too-late restart across 20 hot seeds")
	}
}

// TestPathCmpProperties: Cmp is a strict total order compatible with
// concatenation (quick-checked over small random paths).
func TestPathCmpProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randPath := func() Path {
		n := rng.Intn(4)
		p := make(Path, n)
		for i := range p {
			p[i] = int64(rng.Intn(3) + 1)
		}
		return p
	}
	for i := 0; i < 2000; i++ {
		a, b, c := randPath(), randPath(), randPath()
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("antisymmetry: %v vs %v", a, b)
		}
		if a.Cmp(b) < 0 && b.Cmp(c) < 0 && a.Cmp(c) >= 0 {
			t.Fatalf("transitivity: %v %v %v", a, b, c)
		}
		if a.Cmp(a) != 0 {
			t.Fatalf("reflexivity: %v", a)
		}
	}
}
