package locking

import (
	"testing"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// fix: T0 with two top-level transactions touching register x.
//
//	t1 ── w1 (write x=5), t2 ── r2 (read x), t2 ── w2 (write x=9)
type fix struct {
	tr                 *tname.Tree
	x                  tname.ObjID
	t1, t2, w1, r2, w2 tname.TxID
	m                  *Moss
}

func newFix(t *testing.T) *fix {
	t.Helper()
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	f := &fix{tr: tr, x: x}
	f.t1 = tr.Child(tname.Root, "t1")
	f.t2 = tr.Child(tname.Root, "t2")
	f.w1 = tr.Access(f.t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(5)})
	f.r2 = tr.Access(f.t2, "r2", x, spec.Op{Kind: spec.OpRead})
	f.w2 = tr.Access(f.t2, "w2", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(9)})
	f.m = NewMoss(tr, x)
	return f
}

func (f *fix) mustRespond(t *testing.T, acc tname.TxID) spec.Value {
	t.Helper()
	v, ok := f.m.TryRequestCommit(acc)
	if !ok {
		t.Fatalf("access %s should be enabled", f.tr.Name(acc))
	}
	if err := f.m.CheckChainInvariant(); err != nil {
		t.Fatal(err)
	}
	return v
}

func (f *fix) mustBlock(t *testing.T, acc tname.TxID) {
	t.Helper()
	if _, ok := f.m.TryRequestCommit(acc); ok {
		t.Fatalf("access %s should be blocked", f.tr.Name(acc))
	}
	if len(f.m.Blockers(acc)) == 0 {
		t.Fatalf("blocked access %s must report blockers", f.tr.Name(acc))
	}
}

func TestInitialRead(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.r2)
	if v := f.mustRespond(t, f.r2); v != spec.Int(0) {
		t.Errorf("initial read = %s", v)
	}
}

func TestUncreatedAccessNotEnabled(t *testing.T) {
	f := newFix(t)
	if _, ok := f.m.TryRequestCommit(f.r2); ok {
		t.Error("respond before CREATE must be disabled")
	}
	if f.m.Blockers(f.r2) != nil {
		t.Error("uncreated access has no blockers")
	}
}

func TestNoDoubleResponse(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.r2)
	f.mustRespond(t, f.r2)
	if _, ok := f.m.TryRequestCommit(f.r2); ok {
		t.Error("second response must be disabled")
	}
}

func TestWriteLockBlocksConflicting(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	f.m.Create(f.r2)
	f.m.Create(f.w2)
	f.mustRespond(t, f.w1)
	// w1 (under t1) holds the write lock: r2 and w2 (under t2) block.
	f.mustBlock(t, f.r2)
	f.mustBlock(t, f.w2)
}

func TestReadLockBlocksWriters(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.r2)
	f.m.Create(f.w1)
	f.mustRespond(t, f.r2)
	f.mustBlock(t, f.w1)
}

func TestReadersShareLocks(t *testing.T) {
	f := newFix(t)
	r1 := f.tr.Access(f.t1, "r1", f.x, spec.Op{Kind: spec.OpRead})
	f.m.Create(r1)
	f.m.Create(f.r2)
	f.mustRespond(t, r1)
	if v := f.mustRespond(t, f.r2); v != spec.Int(0) {
		t.Errorf("shared read = %s", v)
	}
}

func TestAncestorLocksAreCompatible(t *testing.T) {
	f := newFix(t)
	// w2 and r2 are both under t2: after w2 responds and COMMITS up to t2,
	// r2 must see the inherited value 9.
	f.m.Create(f.w2)
	f.mustRespond(t, f.w2)
	f.m.InformCommit(f.w2) // lock moves to t2
	f.m.Create(f.r2)
	if v := f.mustRespond(t, f.r2); v != spec.Int(9) {
		t.Errorf("read under same parent after inherited write = %s, want 9", v)
	}
	// But t1's access is still blocked: the lock sits at t2.
	f.m.Create(f.w1)
	f.mustBlock(t, f.w1)
}

func TestLockInheritanceToRootUnblocks(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	f.mustRespond(t, f.w1)
	f.m.InformCommit(f.w1) // to t1
	f.m.Create(f.r2)
	f.mustBlock(t, f.r2)
	f.m.InformCommit(f.t1) // to T0
	if v := f.mustRespond(t, f.r2); v != spec.Int(5) {
		t.Errorf("read after full inheritance = %s, want 5", v)
	}
}

func TestAbortDiscardsLocksAndRestoresValue(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	f.mustRespond(t, f.w1)
	f.m.InformAbort(f.t1) // aborts w1's parent: w1's lock and value vanish
	f.m.Create(f.r2)
	if v := f.mustRespond(t, f.r2); v != spec.Int(0) {
		t.Errorf("read after abort = %s, want initial 0", v)
	}
}

func TestAbortAfterPartialInheritance(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w2)
	f.mustRespond(t, f.w2)
	f.m.InformCommit(f.w2) // value 9 now held by t2
	f.m.InformAbort(f.t2)  // t2 aborts: the inherited value is discarded
	f.m.Create(f.w1)
	f.mustRespond(t, f.w1)
	f.m.InformCommit(f.w1)
	f.m.InformCommit(f.t1)
	f.m.Create(f.r2)
	if v := f.mustRespond(t, f.r2); v != spec.Int(5) {
		t.Errorf("read = %s, want 5 (t2's aborted write must not survive)", v)
	}
}

func TestLeastWriteLockholderValueWins(t *testing.T) {
	// Nested writers: t2 writes 9 (inherited to t2), then a deeper access
	// under t2 writes 3; a read under the same deep transaction must see 3.
	f := newFix(t)
	t21 := f.tr.Child(f.t2, "t21")
	w21 := f.tr.Access(t21, "w21", f.x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(3)})
	r21 := f.tr.Access(t21, "r21", f.x, spec.Op{Kind: spec.OpRead})
	f.m.Create(f.w2)
	f.mustRespond(t, f.w2)
	f.m.InformCommit(f.w2) // 9 at t2
	f.m.Create(w21)
	f.mustRespond(t, w21) // 3 at w21 (descendant of t2: compatible)
	f.m.Create(r21)
	f.m.InformCommit(w21) // 3 at t21
	if v := f.mustRespond(t, r21); v != spec.Int(3) {
		t.Errorf("read = %s, want 3 (least holder's value)", v)
	}
}

func TestHoldersSnapshot(t *testing.T) {
	f := newFix(t)
	f.m.Create(f.w1)
	f.mustRespond(t, f.w1)
	writes, reads := f.m.Holders()
	if len(writes) != 2 { // T0 and w1
		t.Errorf("writes = %v", writes)
	}
	if len(reads) != 0 {
		t.Errorf("reads = %v", reads)
	}
	// Mutating the snapshot must not affect the automaton.
	delete(writes, f.w1)
	f.m.InformCommit(f.w1)
	writes2, _ := f.m.Holders()
	if _, ok := writes2[f.t1]; !ok {
		t.Error("snapshot mutation leaked into the automaton")
	}
}

func TestGeneralizedCounterLocking(t *testing.T) {
	// The read/update generalization: counter updates take exclusive
	// locks; a get under the same transaction sees the updated value.
	tr := tname.NewTree()
	c := tr.AddObject("c", spec.Counter{})
	t1 := tr.Child(tname.Root, "t1")
	inc := tr.Access(t1, "inc", c, spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(4)})
	get := tr.Access(t1, "get", c, spec.Op{Kind: spec.OpGet})
	m := NewMoss(tr, c)
	m.Create(inc)
	if v, ok := m.TryRequestCommit(inc); !ok || v != spec.OK {
		t.Fatalf("inc: %v %v", v, ok)
	}
	m.InformCommit(inc)
	m.Create(get)
	if v, ok := m.TryRequestCommit(get); !ok || v != spec.Int(4) {
		t.Fatalf("get = %v, ok=%v; want 4", v, ok)
	}
}

func TestProtocolFactory(t *testing.T) {
	if (Protocol{}).Name() != "moss" {
		t.Error("protocol name")
	}
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	if g := (Protocol{}).New(tr, x); g == nil {
		t.Error("factory returned nil")
	}
}

func TestBrokenIgnoreReadLocks(t *testing.T) {
	f := newFix(t)
	m := BrokenProtocol{Mode: IgnoreReadLocks}.New(f.tr, f.x).(*Moss)
	m.Create(f.r2)
	if _, ok := m.TryRequestCommit(f.r2); !ok {
		t.Fatal("read should respond")
	}
	m.Create(f.w1)
	// The faithful automaton blocks here; the broken one does not.
	if _, ok := m.TryRequestCommit(f.w1); !ok {
		t.Fatal("broken variant must ignore the read lock")
	}
}

func TestBrokenNoInheritance(t *testing.T) {
	f := newFix(t)
	m := BrokenProtocol{Mode: NoInheritance}.New(f.tr, f.x).(*Moss)
	m.Create(f.w1)
	if _, ok := m.TryRequestCommit(f.w1); !ok {
		t.Fatal("write should respond")
	}
	m.InformCommit(f.w1) // drops the lock to T0 instead of t1
	m.Create(f.r2)
	// The faithful automaton blocks (lock at t1); the broken one responds
	// and leaks the value 5 before t1 commits.
	if v, ok := m.TryRequestCommit(f.r2); !ok || v != spec.Int(5) {
		t.Fatalf("broken variant must leak: %v %v", v, ok)
	}
}

// TestKeepAbortStateMergesLatestWrite: when the aborted transaction and a
// descendant both hold write locks, KeepAbortState merges the descendant's
// state — the chain's latest write — into the parent, whatever order the
// lock map yields the two holders in.
func TestKeepAbortStateMergesLatestWrite(t *testing.T) {
	for i := 0; i < 32; i++ {
		tr := tname.NewTree()
		x := tr.AddObject("x", spec.Register{})
		t1 := tr.Child(tname.Root, "t1")
		w1 := tr.Access(t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(5)})
		w2 := tr.Access(t1, "w2", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(9)})
		r := tr.Access(tr.Child(tname.Root, "t2"), "r", x, spec.Op{Kind: spec.OpRead})
		m := BrokenProtocol{Mode: KeepAbortState}.New(tr, x).(*Moss)
		for _, w := range []tname.TxID{w1, w2} {
			m.Create(w)
			if _, ok := m.TryRequestCommit(w); !ok {
				t.Fatalf("%s should respond", tr.Name(w))
			}
			if w == w1 {
				m.InformCommit(w1) // t1 holds 5; w2 then holds 9 below it
			}
		}
		m.InformAbort(t1)
		m.Create(r)
		if v, ok := m.TryRequestCommit(r); !ok || v != spec.Int(9) {
			t.Fatalf("repeat %d: read %v (ok %v) after the merge, want the latest write 9", i, v, ok)
		}
	}
}

func TestBrokenKeepAbortState(t *testing.T) {
	f := newFix(t)
	m := BrokenProtocol{Mode: KeepAbortState}.New(f.tr, f.x).(*Moss)
	m.Create(f.w1)
	if _, ok := m.TryRequestCommit(f.w1); !ok {
		t.Fatal("write should respond")
	}
	m.InformAbort(f.w1) // merges 5 into t1 instead of discarding
	m.InformCommit(f.t1)
	m.Create(f.r2)
	if v, ok := m.TryRequestCommit(f.r2); !ok || v != spec.Int(5) {
		t.Fatalf("broken recovery must keep the aborted write: %v %v", v, ok)
	}
	names := map[string]bool{}
	for _, mode := range []BrokenMode{IgnoreReadLocks, NoInheritance, KeepAbortState} {
		names[BrokenProtocol{Mode: mode}.Name()] = true
	}
	if len(names) != 3 {
		t.Error("broken protocol names must be distinct")
	}
}
