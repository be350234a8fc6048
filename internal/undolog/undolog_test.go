package undolog

import (
	"testing"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// counterFix: two top-level transactions over one counter.
//
//	t1 ── i1 (inc 5), g1 (get); t2 ── i2 (inc 3), g2 (get)
type counterFix struct {
	tr             *tname.Tree
	c              tname.ObjID
	t1, t2         tname.TxID
	i1, g1, i2, g2 tname.TxID
	u              *Undo
}

func newCounterFix(t *testing.T) *counterFix {
	t.Helper()
	tr := tname.NewTree()
	c := tr.AddObject("c", spec.Counter{})
	f := &counterFix{tr: tr, c: c}
	f.t1 = tr.Child(tname.Root, "t1")
	f.t2 = tr.Child(tname.Root, "t2")
	f.i1 = tr.Access(f.t1, "i1", c, spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(5)})
	f.g1 = tr.Access(f.t1, "g1", c, spec.Op{Kind: spec.OpGet})
	f.i2 = tr.Access(f.t2, "i2", c, spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(3)})
	f.g2 = tr.Access(f.t2, "g2", c, spec.Op{Kind: spec.OpGet})
	f.u = New(tr, c)
	return f
}

func (f *counterFix) respond(t *testing.T, acc tname.TxID) spec.Value {
	t.Helper()
	f.u.Create(acc)
	v, ok := f.u.TryRequestCommit(acc)
	if !ok {
		t.Fatalf("access %s should be enabled", f.tr.Name(acc))
	}
	return v
}

func TestCommutingUpdatesInterleave(t *testing.T) {
	f := newCounterFix(t)
	// Both increments proceed concurrently — no locks, no commits needed —
	// because increments commute backward.
	if v := f.respond(t, f.i1); v != spec.OK {
		t.Errorf("i1 = %s", v)
	}
	if v := f.respond(t, f.i2); v != spec.OK {
		t.Errorf("i2 = %s", v)
	}
	if log := f.u.Log(); len(log) != 2 {
		t.Errorf("log = %v", log)
	}
}

func TestObserverBlockedByUncommittedUpdate(t *testing.T) {
	f := newCounterFix(t)
	f.respond(t, f.i1)
	// g2 would return 5, which does not commute with t1's uncommitted inc.
	f.u.Create(f.g2)
	if _, ok := f.u.TryRequestCommit(f.g2); ok {
		t.Fatal("get must wait for the uncommitted increment")
	}
	blockers := f.u.Blockers([]tname.TxID{f.g2}, nil)
	if len(blockers) != 1 || blockers[0] != f.i1 {
		t.Errorf("blockers = %v", blockers)
	}
	// Same-transaction observer is fine: g1 sees its own sibling's effect
	// only after... g1 is a sibling of i1 under t1, so i1 is NOT visible to
	// g1 until it commits — but commutativity is checked against
	// *uncommitted ancestors outside ancestors(g1)*: i1 itself is such an
	// ancestor (i1 ∉ ancestors(g1)), so g1 blocks too.
	f.u.Create(f.g1)
	if _, ok := f.u.TryRequestCommit(f.g1); ok {
		t.Fatal("sibling get must wait for the uncommitted increment")
	}
	// After i1 commits, g1 unblocks and sees 5.
	f.u.InformCommit(f.i1)
	if v, ok := f.u.TryRequestCommit(f.g1); !ok || v != spec.Int(5) {
		t.Fatalf("g1 = %v, ok=%v", v, ok)
	}
}

func TestGetAfterCommitChain(t *testing.T) {
	f := newCounterFix(t)
	f.respond(t, f.i1)
	f.u.InformCommit(f.i1)
	f.u.InformCommit(f.t1)
	if v := f.respond(t, f.g2); v != spec.Int(5) {
		t.Errorf("g2 = %s, want 5", v)
	}
}

func TestAbortErasesDescendants(t *testing.T) {
	f := newCounterFix(t)
	f.respond(t, f.i1)
	f.u.InformCommit(f.i1)
	f.u.InformAbort(f.t1) // t1 aborts: i1's operation is erased
	if log := f.u.Log(); len(log) != 0 {
		t.Fatalf("log after abort = %v", log)
	}
	if v := f.respond(t, f.g2); v != spec.Int(0) {
		t.Errorf("g2 = %s, want 0 after undo", v)
	}
}

func TestAbortInvalidatesCache(t *testing.T) {
	f := newCounterFix(t)
	f.respond(t, f.i1)
	f.respond(t, f.i2)
	f.u.InformAbort(f.t1)
	// Only i2 remains: a get under t2 must see 3.
	f.u.InformCommit(f.i2)
	if v := f.respond(t, f.g2); v != spec.Int(3) {
		t.Errorf("g2 = %s, want 3", v)
	}
	if txs := f.u.LogTx(); len(txs) != 2 || txs[0] != f.i2 || txs[1] != f.g2 {
		t.Errorf("log txs = %v", txs)
	}
}

func TestUncreatedAndDoubleRespond(t *testing.T) {
	f := newCounterFix(t)
	if _, ok := f.u.TryRequestCommit(f.i1); ok {
		t.Error("respond before CREATE must fail")
	}
	f.respond(t, f.i1)
	if _, ok := f.u.TryRequestCommit(f.i1); ok {
		t.Error("double respond must fail")
	}
	if len(f.u.Blockers([]tname.TxID{f.i1}, nil)) != 0 {
		t.Error("responded access has no blockers")
	}
}

func TestRegisterBehavesLikeLocking(t *testing.T) {
	// Register operations never commute (unless both reads), so undo
	// logging degenerates to blocking exactly where Moss blocks.
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	t1 := tr.Child(tname.Root, "t1")
	t2 := tr.Child(tname.Root, "t2")
	w1 := tr.Access(t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(5)})
	r2 := tr.Access(t2, "r2", x, spec.Op{Kind: spec.OpRead})
	u := New(tr, x)
	u.Create(w1)
	if _, ok := u.TryRequestCommit(w1); !ok {
		t.Fatal("w1 enabled")
	}
	u.Create(r2)
	if _, ok := u.TryRequestCommit(r2); ok {
		t.Fatal("r2 must block behind uncommitted write")
	}
	u.InformCommit(w1)
	u.InformCommit(t1)
	if v, ok := u.TryRequestCommit(r2); !ok || v != spec.Int(5) {
		t.Fatalf("r2 = %v after commits", v)
	}
}

func TestAccountWithdrawGate(t *testing.T) {
	// A failed withdrawal commutes with balance but a successful one does
	// not: with an uncommitted deposit in the log, a withdrawal that would
	// succeed must block.
	tr := tname.NewTree()
	a := tr.AddObject("a", spec.Account{})
	t1 := tr.Child(tname.Root, "t1")
	t2 := tr.Child(tname.Root, "t2")
	dep := tr.Access(t1, "dep", a, spec.Op{Kind: spec.OpDeposit, Arg: spec.Int(10)})
	wd := tr.Access(t2, "wd", a, spec.Op{Kind: spec.OpWithdraw, Arg: spec.Int(5)})
	u := New(tr, a)
	u.Create(dep)
	if _, ok := u.TryRequestCommit(dep); !ok {
		t.Fatal("deposit enabled")
	}
	u.Create(wd)
	if _, ok := u.TryRequestCommit(wd); ok {
		t.Fatal("withdrawal depending on an uncommitted deposit must block")
	}
	u.InformCommit(dep)
	u.InformCommit(t1)
	if v, ok := u.TryRequestCommit(wd); !ok || v != spec.Bool(true) {
		t.Fatalf("wd = %v after commit", v)
	}
}

func TestBrokenNoUndo(t *testing.T) {
	f := newCounterFix(t)
	u := BrokenProtocol{Mode: NoUndo}.New(f.tr, f.c).(*Undo)
	u.Create(f.i1)
	if _, ok := u.TryRequestCommit(f.i1); !ok {
		t.Fatal("inc enabled")
	}
	u.InformAbort(f.t1)
	if len(u.Log()) != 1 {
		t.Fatal("broken variant must keep the aborted operation")
	}
}

func TestBrokenSkipCommute(t *testing.T) {
	f := newCounterFix(t)
	u := BrokenProtocol{Mode: SkipCommute}.New(f.tr, f.c).(*Undo)
	u.Create(f.i1)
	if _, ok := u.TryRequestCommit(f.i1); !ok {
		t.Fatal("inc enabled")
	}
	u.Create(f.g2)
	if v, ok := u.TryRequestCommit(f.g2); !ok || v != spec.Int(5) {
		t.Fatalf("broken variant must admit the dirty read: %v %v", v, ok)
	}
	if (BrokenProtocol{Mode: NoUndo}).Name() == (BrokenProtocol{Mode: SkipCommute}).Name() {
		t.Error("broken names must differ")
	}
}

func TestProtocolFactory(t *testing.T) {
	if (Protocol{}).Name() != "undolog" {
		t.Error("protocol name")
	}
	tr := tname.NewTree()
	c := tr.AddObject("c", spec.Counter{})
	if g := (Protocol{}).New(tr, c); g == nil {
		t.Error("factory returned nil")
	}
}
