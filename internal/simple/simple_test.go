package simple

import (
	"math/rand"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// fixture builds the nested system used across these tests:
//
//	T0
//	├── t1 ── w1 (write x=5), r1 (read x)
//	├── t2 ── t21 ── w2 (write x=9)
//	└── t3 ── r3 (read x)
type fix struct {
	tr              *tname.Tree
	x               tname.ObjID
	t1, t2, t21, t3 tname.TxID
	w1, r1, w2, r3  tname.TxID
}

func newFix(t *testing.T) *fix {
	t.Helper()
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	f := &fix{tr: tr, x: x}
	f.t1 = tr.Child(tname.Root, "t1")
	f.t2 = tr.Child(tname.Root, "t2")
	f.t21 = tr.Child(f.t2, "t21")
	f.t3 = tr.Child(tname.Root, "t3")
	f.w1 = tr.Access(f.t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(5)})
	f.r1 = tr.Access(f.t1, "r1", x, spec.Op{Kind: spec.OpRead})
	f.w2 = tr.Access(f.t21, "w2", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(9)})
	f.r3 = tr.Access(f.t3, "r3", x, spec.Op{Kind: spec.OpRead})
	return f
}

// ev shorthands.
func ev(k event.Kind, tx tname.TxID) event.Event { return event.NewEvent(k, tx) }
func evv(k event.Kind, tx tname.TxID, v spec.Value) event.Event {
	return event.NewValEvent(k, tx, v)
}

func TestVisibility(t *testing.T) {
	f := newFix(t)
	// w2 commits, t21 commits, but t2 does not: w2 is visible to t2 (and to
	// descendants of t2) but not to T0 or t1.
	b := event.Behavior{
		ev(event.Commit, f.w2),
		ev(event.Commit, f.t21),
	}
	v0 := NewVis(f.tr, b, tname.Root)
	if v0.Visible(f.w2) {
		t.Error("w2 must not be visible to T0 (t2 uncommitted)")
	}
	v2 := NewVis(f.tr, b, f.t2)
	if !v2.Visible(f.w2) {
		t.Error("w2 must be visible to t2")
	}
	// Visibility to a cousin requires commits up to the lca.
	v1 := NewVis(f.tr, b, f.t1)
	if v1.Visible(f.w2) {
		t.Error("w2 must not be visible to t1")
	}
	b = append(b, ev(event.Commit, f.t2))
	v1 = NewVis(f.tr, b, f.t1)
	if !v1.Visible(f.w2) {
		t.Error("after COMMIT(t2), w2 is visible to t1")
	}
	// Everything is visible to itself and to its descendants' perspective.
	if !NewVis(f.tr, nil, f.w2).Visible(f.w2) {
		t.Error("reflexive visibility")
	}
	// T0 is visible to everyone.
	if !v0.Visible(tname.Root) {
		t.Error("T0 visible to T0")
	}
}

func TestVisibleToFiltersEvents(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		evv(event.RequestCommit, f.w2, spec.OK), // hightransaction w2
		ev(event.Commit, f.w2),                  // hightransaction t21
		evv(event.RequestCommit, f.w1, spec.OK),
		ev(event.Commit, f.w1),
		ev(event.Commit, f.t1),
		event.NewInform(event.InformCommit, f.w1, f.x), // not serial: dropped
	}
	vis := VisibleTo(f.tr, b, tname.Root)
	// Visible: w1's request-commit (w1,t1 committed), COMMIT(w1)
	// (hightransaction t1 committed... t1 is committed), COMMIT(t1)
	// (hightransaction T0). Not visible: w2 events (t21, t2 uncommitted).
	if len(vis) != 3 {
		t.Fatalf("visible(β,T0) = %d events:\n%s", len(vis), vis.Format(f.tr))
	}
	for _, e := range vis {
		if e.Tx == f.w2 {
			t.Error("w2 events must be filtered out")
		}
	}
}

func TestCleanDropsOrphans(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		evv(event.RequestCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.w2, spec.OK),
		ev(event.Abort, f.t2),
	}
	c := Clean(f.tr, b)
	// w2's request-commit is orphaned by ABORT(t2); ABORT(t2) itself has
	// hightransaction T0 (not an orphan) and stays.
	if len(c) != 2 {
		t.Fatalf("clean(β) = %d events:\n%s", len(c), c.Format(f.tr))
	}
	if c[0].Tx != f.w1 || c[1].Kind != event.Abort {
		t.Errorf("clean(β) content wrong:\n%s", c.Format(f.tr))
	}
}

func TestWriteSequenceAndFinalValue(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		evv(event.RequestCommit, f.r3, spec.Int(0)),
		evv(event.RequestCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.w2, spec.OK),
	}
	ws := WriteSequence(f.tr, b, f.x)
	if len(ws) != 2 || ws[0].Tx != f.w1 || ws[1].Tx != f.w2 {
		t.Fatalf("write-sequence wrong:\n%s", ws.Format(f.tr))
	}
	if lw, ok := LastWrite(f.tr, b, f.x); !ok || lw != f.w2 {
		t.Error("last-write must be w2")
	}
	if got := FinalValue(f.tr, b, f.x); got != spec.Int(9) {
		t.Errorf("final-value = %s", got)
	}
	if got := FinalValue(f.tr, nil, f.x); got != spec.Int(0) {
		t.Errorf("final-value of empty behavior = %s, want initial", got)
	}
	if _, ok := LastWrite(f.tr, nil, f.x); ok {
		t.Error("last-write undefined on empty behavior")
	}
}

func TestCleanFinalValue(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		evv(event.RequestCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.w2, spec.OK),
		ev(event.Abort, f.t21),
	}
	// w2 is orphaned, so the clean final value is w1's datum.
	if got := CleanFinalValue(f.tr, b, f.x); got != spec.Int(5) {
		t.Errorf("clean-final-value = %s, want 5", got)
	}
	if lw, ok := CleanLastWrite(f.tr, b, f.x); !ok || lw != f.w1 {
		t.Error("clean-last-write must be w1")
	}
}

// committedRun returns a behavior in which w1 then r3 run and every
// involved transaction commits; readVal is what r3 returns.
func committedRun(f *fix, readVal spec.Value) event.Behavior {
	return event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1),
		ev(event.Create, f.t1),
		ev(event.RequestCreate, f.w1),
		ev(event.Create, f.w1),
		evv(event.RequestCommit, f.w1, spec.OK),
		ev(event.Commit, f.w1),
		evv(event.ReportCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.t1, spec.Nil),
		ev(event.Commit, f.t1),
		evv(event.ReportCommit, f.t1, spec.Nil),
		ev(event.RequestCreate, f.t3),
		ev(event.Create, f.t3),
		ev(event.RequestCreate, f.r3),
		ev(event.Create, f.r3),
		evv(event.RequestCommit, f.r3, readVal),
		ev(event.Commit, f.r3),
		evv(event.ReportCommit, f.r3, readVal),
		evv(event.RequestCommit, f.t3, spec.Nil),
		ev(event.Commit, f.t3),
		evv(event.ReportCommit, f.t3, spec.Nil),
	}
}

func TestAppropriateReturnValuesAccepts(t *testing.T) {
	f := newFix(t)
	b := committedRun(f, spec.Int(5))
	if viols := AppropriateReturnValues(f.tr, b); len(viols) != 0 {
		t.Fatalf("unexpected violations: %+v", viols)
	}
}

func TestAppropriateReturnValuesRejects(t *testing.T) {
	f := newFix(t)
	b := committedRun(f, spec.Int(42)) // r3 returns garbage
	viols := AppropriateReturnValues(f.tr, b)
	if len(viols) != 1 {
		t.Fatalf("want 1 violation, got %+v", viols)
	}
	v := viols[0]
	if v.Tx != f.r3 || v.Got != spec.Int(42) || v.Want != spec.Int(5) {
		t.Errorf("violation = %+v", v)
	}
	if v.Error(f.tr) == "" {
		t.Error("violation must render")
	}
}

func TestAppropriateReturnValuesIgnoresInvisible(t *testing.T) {
	f := newFix(t)
	// w2 writes 9 but t2/t21 never commit; a later committed read of 5 is
	// appropriate because the invisible write is excluded.
	b := committedRun(f, spec.Int(5))
	head := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t2),
		ev(event.Create, f.t2),
		ev(event.RequestCreate, f.t21),
		ev(event.Create, f.t21),
		ev(event.RequestCreate, f.w2),
		ev(event.Create, f.w2),
		evv(event.RequestCommit, f.w2, spec.OK),
	}
	full := append(head, b[1:]...) // drop duplicate CREATE(T0)
	if viols := AppropriateReturnValues(f.tr, full); len(viols) != 0 {
		t.Fatalf("invisible write must not count: %+v", viols)
	}
}

func TestAuditCurrentSafe(t *testing.T) {
	f := newFix(t)
	b := committedRun(f, spec.Int(5))
	reads, badWrites := AuditCurrentSafe(f.tr, b)
	if len(badWrites) != 0 {
		t.Errorf("bad writes: %v", badWrites)
	}
	if len(reads) != 1 || !reads[0].Current || !reads[0].Safe {
		t.Fatalf("reads = %+v", reads)
	}
}

func TestAuditCurrentDetectsStaleRead(t *testing.T) {
	f := newFix(t)
	b := committedRun(f, spec.Int(0)) // r3 reads the initial value: stale
	reads, _ := AuditCurrentSafe(f.tr, b)
	if len(reads) != 1 || reads[0].Current {
		t.Fatalf("stale read must not be current: %+v", reads)
	}
}

func TestAuditSafeDetectsDirtyRead(t *testing.T) {
	f := newFix(t)
	// w1 writes but t1 has NOT committed when r3 reads 5: current but not
	// safe (dirty read of uncommitted data)... then t1 commits later so r3
	// is visible to T0.
	b := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1),
		ev(event.Create, f.t1),
		ev(event.RequestCreate, f.w1),
		ev(event.Create, f.w1),
		evv(event.RequestCommit, f.w1, spec.OK),
		ev(event.Commit, f.w1),
		ev(event.RequestCreate, f.t3),
		ev(event.Create, f.t3),
		ev(event.RequestCreate, f.r3),
		ev(event.Create, f.r3),
		evv(event.RequestCommit, f.r3, spec.Int(5)), // dirty: t1 uncommitted
		ev(event.Commit, f.r3),
		evv(event.ReportCommit, f.r3, spec.Int(5)),
		evv(event.RequestCommit, f.t3, spec.Nil),
		ev(event.Commit, f.t3),
		evv(event.ReportCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.t1, spec.Nil),
		ev(event.Commit, f.t1),
	}
	reads, _ := AuditCurrentSafe(f.tr, b)
	if len(reads) != 1 {
		t.Fatalf("reads = %+v", reads)
	}
	if !reads[0].Current {
		t.Error("the dirty read is still current")
	}
	if reads[0].Safe {
		t.Error("the dirty read must not be safe")
	}
}

func TestWellFormedAccepts(t *testing.T) {
	f := newFix(t)
	if err := CheckWellFormed(f.tr, committedRun(f, spec.Int(5))); err != nil {
		t.Fatal(err)
	}
}

func TestWellFormedViolations(t *testing.T) {
	f := newFix(t)
	cases := []struct {
		name string
		b    event.Behavior
	}{
		{"create without request", event.Behavior{
			ev(event.Create, tname.Root), ev(event.Create, f.t1)}},
		{"double create", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), ev(event.Create, f.t1)}},
		{"request_create of T0", event.Behavior{ev(event.RequestCreate, tname.Root)}},
		{"double request_create", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1), ev(event.RequestCreate, f.t1)}},
		{"request by uncreated parent", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t21)}},
		{"commit without request_commit", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), ev(event.Commit, f.t1)}},
		{"abort without request_create", event.Behavior{
			ev(event.Create, tname.Root), ev(event.Abort, f.t1)}},
		{"double completion", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Abort, f.t1), ev(event.Abort, f.t1)}},
		{"commit after abort", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), evv(event.RequestCommit, f.t1, spec.Nil),
			ev(event.Abort, f.t1), ev(event.Commit, f.t1)}},
		{"report without completion", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			evv(event.ReportCommit, f.t1, spec.Nil)}},
		{"report value mismatch", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), evv(event.RequestCommit, f.t1, spec.Nil),
			ev(event.Commit, f.t1), evv(event.ReportCommit, f.t1, spec.Int(3))}},
		{"request_commit with open children", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), ev(event.RequestCreate, f.w1),
			evv(event.RequestCommit, f.t1, spec.Nil)}},
		{"request_commit before create", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			evv(event.RequestCommit, f.t1, spec.Nil)}},
		{"request after parent requested commit", event.Behavior{
			ev(event.Create, tname.Root), ev(event.RequestCreate, f.t1),
			ev(event.Create, f.t1), evv(event.RequestCommit, f.t1, spec.Nil),
			ev(event.RequestCreate, f.w1)}},
	}
	for _, c := range cases {
		if err := CheckWellFormed(f.tr, c.b); err == nil {
			t.Errorf("%s: expected a well-formedness error", c.name)
		}
	}
}

// TestWellFormedUnknownTransaction: every serial kind naming a transaction
// the system type does not have — one past the last name, or None — is a
// violation, never an index panic.
func TestWellFormedUnknownTransaction(t *testing.T) {
	tr := tname.NewTree()
	kinds := []event.Kind{event.Create, event.RequestCreate, event.RequestCommit,
		event.Commit, event.Abort, event.ReportCommit, event.ReportAbort}
	for _, k := range kinds {
		for _, tx := range []tname.TxID{tname.TxID(tr.NumTx()), tname.None} {
			err := CheckWellFormed(tr, event.Behavior{ev(event.Create, tname.Root), ev(k, tx)})
			var wf *WFError
			if !errorsAs(err, &wf) || wf.Index != 1 || wf.Msg != "names unknown transaction" {
				t.Errorf("%v %d: got %v, want an unknown-transaction error at event 1", k, tx, err)
			}
		}
	}
}

func TestWellFormedIgnoresInforms(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		ev(event.Create, tname.Root),
		event.NewInform(event.InformCommit, f.t1, f.x),
	}
	if err := CheckWellFormed(f.tr, b); err != nil {
		t.Fatal(err)
	}
}

// TestLemma4Characterization is the executable Lemma 4: perform(T, v)
// extends a register behavior exactly when T is a write with v = OK, or a
// read with v = final-value of the prefix.
func TestLemma4Characterization(t *testing.T) {
	sp := spec.Register{}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		// Random legal prefix.
		n := rng.Intn(6)
		var xi []spec.OpVal
		st := sp.Init()
		for i := 0; i < n; i++ {
			op := sp.RandOp(rng)
			var v spec.Value
			st, v = sp.Apply(st, op)
			xi = append(xi, spec.OpVal{Op: op, Val: v})
		}
		finalVal := st.(spec.Value)

		// A write extends with OK and nothing else.
		w := spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(rng.Intn(8)))}
		if ok, _ := spec.IsBehavior(sp, append(append([]spec.OpVal{}, xi...), spec.OpVal{Op: w, Val: spec.OK})); !ok {
			t.Fatal("write with OK must extend")
		}
		if ok, _ := spec.IsBehavior(sp, append(append([]spec.OpVal{}, xi...), spec.OpVal{Op: w, Val: spec.Int(1)})); ok {
			t.Fatal("write with non-OK must not extend")
		}
		// A read extends exactly with the final value.
		r := spec.Op{Kind: spec.OpRead}
		if ok, _ := spec.IsBehavior(sp, append(append([]spec.OpVal{}, xi...), spec.OpVal{Op: r, Val: finalVal})); !ok {
			t.Fatal("read with final-value must extend")
		}
		wrong := spec.Int(finalVal.Int + 1)
		if ok, _ := spec.IsBehavior(sp, append(append([]spec.OpVal{}, xi...), spec.OpVal{Op: r, Val: wrong})); ok {
			t.Fatal("read with a different value must not extend")
		}
	}
}

// TestLemma3StateIsFinalValue: after any legal schedule the register state
// equals final-value of the behavior.
func TestLemma3StateIsFinalValue(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{
		evv(event.RequestCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.r1, spec.Int(5)),
		evv(event.RequestCommit, f.w2, spec.OK),
	}
	// Replay through the spec and compare with FinalValue.
	sp := f.tr.Spec(f.x)
	st := sp.Init()
	for _, op := range b.Operations(f.tr) {
		st, _ = sp.Apply(st, op.OV.Op)
	}
	if got := FinalValue(f.tr, b, f.x); got != st.(spec.Value) {
		t.Fatalf("final-value %s != replayed state %s", got, st.(spec.Value))
	}
}

func TestVisCommittedAndMustRegister(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{ev(event.Commit, f.t1)}
	vis := NewVis(f.tr, b, tname.Root)
	if !vis.Committed(f.t1) || vis.Committed(f.t2) {
		t.Error("Committed oracle wrong")
	}
	// write-sequence on a non-register object panics.
	c := f.tr.AddObject("cnt", spec.Counter{})
	defer func() {
		if recover() == nil {
			t.Error("WriteSequence on a counter must panic")
		}
	}()
	WriteSequence(f.tr, nil, c)
}

func TestWFErrorRendering(t *testing.T) {
	f := newFix(t)
	err := CheckWellFormed(f.tr, event.Behavior{ev(event.Create, f.t1)})
	if err == nil {
		t.Fatal("expected error")
	}
	var wf *WFError
	if !errorsAs(err, &wf) {
		t.Fatalf("error type %T", err)
	}
	if wf.Error() == "" || wf.Index != 0 {
		t.Errorf("rendered: %q index %d", wf.Error(), wf.Index)
	}
}

func errorsAs(err error, target **WFError) bool {
	w, ok := err.(*WFError)
	if ok {
		*target = w
	}
	return ok
}
