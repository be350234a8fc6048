package generic

import (
	"fmt"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/program"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
)

// contendedRoot: two top-level transactions both writing then reading one
// register — guaranteed lock contention under Moss.
func contendedRoot(tr *tname.Tree) *program.Node {
	x := tr.AddObject("x", spec.Register{})
	mk := func(name string, val int64) *program.Node {
		return program.SeqNode(name,
			program.Access(name+".w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(val)}),
			program.Access(name+".r", x, spec.Op{Kind: spec.OpRead}),
		)
	}
	return &program.Node{Label: "T0", Mode: program.Par,
		Children: []*program.Node{mk("t1", 1), mk("t2", 2)}}
}

func TestRunQuiescesAndIsWellFormed(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	b, st, err := Run(tr, root, Options{Seed: 1, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := simple.CheckWellFormed(tr, b); err != nil {
		t.Fatalf("%v\n%s", err, b.Format(tr))
	}
	if st.Commits == 0 || st.Accesses != 4 {
		t.Errorf("stats = %+v", st)
	}
	// Both top-level transactions must commit (no deadlock in this shape
	// once one waits for the other).
	commits := b.CommitSet()
	for _, c := range root.Children {
		id := tr.Child(tname.Root, c.Label)
		if !commits[id] {
			t.Errorf("%s did not commit", c.Label)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	tr1 := tname.NewTree()
	b1, _, err := Run(tr1, contendedRoot(tr1), Options{Seed: 42, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tname.NewTree()
	b2, _, err := Run(tr2, contendedRoot(tr2), Options{Seed: 42, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Equal(b2) {
		t.Fatal("same seed must give the same trace")
	}
	tr3 := tname.NewTree()
	b3, _, err := Run(tr3, contendedRoot(tr3), Options{Seed: 43, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Equal(b3) {
		t.Log("different seeds gave the same trace (possible but unlikely)")
	}
}

func TestRunRequiresProtocol(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	if _, _, err := Run(tr, root, Options{}); err == nil {
		t.Fatal("missing protocol must error")
	}
}

func TestInformsDeliveredInCompletionOrderPerObject(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	b, _, err := Run(tr, root, Options{Seed: 9, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	// For each object, the sequence of INFORM events must match the
	// sequence of completion events of the informed transactions.
	completionPos := make(map[tname.TxID]int)
	for i, e := range b {
		if e.Kind.IsCompletion() {
			completionPos[e.Tx] = i
		}
	}
	lastPos := make(map[tname.ObjID]int)
	for _, e := range b {
		if e.Kind != event.InformCommit && e.Kind != event.InformAbort {
			continue
		}
		pos, ok := completionPos[e.Tx]
		if !ok {
			t.Fatalf("inform for %s without completion", tr.Name(e.Tx))
		}
		if pos < lastPos[e.Obj] {
			t.Fatalf("informs at object %d out of completion order", e.Obj)
		}
		lastPos[e.Obj] = pos
	}
}

func TestDeadlockResolvedByVictimAbort(t *testing.T) {
	// Classic deadlock: t1 reads x then writes y; t2 reads y then writes x.
	// Under Moss both take read locks then block upgrading — scan seeds for
	// a run that needed a victim, and require that every run quiesces.
	tr0 := tname.NewTree()
	mkRoot := func(tr *tname.Tree) *program.Node {
		x := tr.AddObject("x", spec.Register{})
		y := tr.AddObject("y", spec.Register{})
		t1 := program.SeqNode("t1",
			program.Access("rx", x, spec.Op{Kind: spec.OpRead}),
			program.Access("wy", y, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)}),
		)
		t2 := program.SeqNode("t2",
			program.Access("ry", y, spec.Op{Kind: spec.OpRead}),
			program.Access("wx", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)}),
		)
		return &program.Node{Label: "T0", Mode: program.Par, Children: []*program.Node{t1, t2}}
	}
	_ = tr0
	sawVictim := false
	for seed := int64(0); seed < 40; seed++ {
		tr := tname.NewTree()
		b, st, err := Run(tr, mkRoot(tr), Options{Seed: seed, Protocol: locking.Protocol{}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := simple.CheckWellFormed(tr, b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.DeadlockVictims > 0 {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Error("expected at least one deadlock among 40 seeds")
	}
}

func TestSpontaneousAbortsFreezeSubtrees(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	b, st, err := Run(tr, root, Options{Seed: 11, Protocol: locking.Protocol{},
		AbortProb: 0.2, MaxAborts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := simple.CheckWellFormed(tr, b); err != nil {
		t.Fatalf("%v\n%s", err, b.Format(tr))
	}
	// No event of any transaction may follow the abort of an ancestor.
	abortedAt := make(map[tname.TxID]int)
	for i, e := range b {
		if e.Kind == event.Abort {
			abortedAt[e.Tx] = i
		}
	}
	for i, e := range b {
		if !e.Kind.IsSerial() || e.Kind == event.Abort || e.Kind.IsReport() {
			continue
		}
		for anc, pos := range abortedAt {
			if i > pos && e.Tx != anc && tr.IsDescendant(e.Tx, anc) {
				t.Fatalf("event %d (%s) after ancestor %s aborted", i, e.Format(tr), tr.Name(anc))
			}
		}
	}
	_ = st
}

func TestUndoLogRunQuiesces(t *testing.T) {
	tr := tname.NewTree()
	c := tr.AddObject("c", spec.Counter{})
	mk := func(name string, amt int64) *program.Node {
		return program.SeqNode(name,
			program.Access(name+".i", c, spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(amt)}),
		)
	}
	root := &program.Node{Label: "T0", Mode: program.Par,
		Children: []*program.Node{mk("t1", 1), mk("t2", 2), mk("t3", 3)}}
	b, st, err := Run(tr, root, Options{Seed: 5, Protocol: undolog.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := simple.CheckWellFormed(tr, b); err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 3 {
		t.Errorf("accesses = %d", st.Accesses)
	}
	// Commuting increments never block.
	if st.Blocked != 0 {
		t.Errorf("blocked polls = %d, want 0 for commuting updates", st.Blocked)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	if _, _, err := Run(tr, root, Options{Seed: 1, Protocol: locking.Protocol{}, MaxSteps: 3}); err == nil {
		t.Fatal("tiny step budget must fail")
	}
}

// TestAllowOrphansReleasesStuckLocks: an orphan's committed work inherits
// its lock up into an aborted ancestor; the follow-up abort re-inform must
// release it so live transactions eventually proceed.
func TestAllowOrphansReleasesStuckLocks(t *testing.T) {
	completedBoth := 0
	for seed := int64(0); seed < 25; seed++ {
		tr := tname.NewTree()
		root := contendedRoot(tr)
		b, _, err := Run(tr, root, Options{Seed: seed, Protocol: locking.Protocol{},
			AbortProb: 0.05, MaxAborts: 2, AllowOrphans: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := simple.CheckWellFormed(tr, b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every top-level transaction must reach a completion (no
		// permanent stalls from stuck inherited locks).
		commits, aborts := b.CommitSet(), b.AbortSet()
		done := 0
		for _, c := range tr.Children(tname.Root) {
			if commits[c] || aborts[c] {
				done++
			}
		}
		if done == len(tr.Children(tname.Root)) {
			completedBoth++
		}
	}
	if completedBoth == 0 {
		t.Error("no run completed all top-level transactions under orphan mode")
	}
}

// TestDuplicateChildPanics: a program requesting the same label twice in
// one parent is a programming error the runner surfaces loudly.
func TestDuplicateChildPanics(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	dup := program.Access("same", x, spec.Op{Kind: spec.OpRead})
	bad := &program.Node{Label: "T0", Mode: program.Par, Children: []*program.Node{
		program.SeqNode("t", program.Access("a", x, spec.Op{Kind: spec.OpRead})),
	}}
	bad.Children[0].OnOutcome = func(i int, c *program.Node, oc program.Outcome) []*program.Node {
		// Request "same" twice via two outcomes... simpler: return it and
		// a clone with the same label at once.
		clone := *dup
		return []*program.Node{dup, &clone}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate child name")
		}
	}()
	_, _, _ = Run(tr, bad, Options{Seed: 1, Protocol: locking.Protocol{}})
}

// TestStatsAccounting: commits+aborts equal the completion events in the
// trace, and Events matches the trace length.
func TestStatsAccounting(t *testing.T) {
	tr := tname.NewTree()
	root := contendedRoot(tr)
	b, st, err := Run(tr, root, Options{Seed: 77, Protocol: locking.Protocol{},
		AbortProb: 0.05, MaxAborts: 2})
	if err != nil {
		t.Fatal(err)
	}
	commits, aborts := 0, 0
	for _, e := range b {
		switch e.Kind {
		case event.Commit:
			commits++
		case event.Abort:
			aborts++
		}
	}
	if commits != st.Commits || aborts != st.Aborts {
		t.Errorf("stats commits/aborts = %d/%d, trace has %d/%d", st.Commits, st.Aborts, commits, aborts)
	}
	if st.Events != len(b) {
		t.Errorf("stats events = %d, trace %d", st.Events, len(b))
	}
	if st.SpontaneousAborts+st.DeadlockVictims > st.Aborts {
		t.Error("abort sub-counters exceed total aborts")
	}
}

// TestEagerDeadlockDetection: with eager waits-for detection the classic
// two-transaction deadlock is broken before global quiescence, and runs
// remain well-formed. Compare victim behavior across both policies.
func TestEagerDeadlockDetection(t *testing.T) {
	mkRoot := func(tr *tname.Tree) *program.Node {
		x := tr.AddObject("x", spec.Register{})
		y := tr.AddObject("y", spec.Register{})
		t1 := program.SeqNode("t1",
			program.Access("rx", x, spec.Op{Kind: spec.OpRead}),
			program.Access("wy", y, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)}),
		)
		t2 := program.SeqNode("t2",
			program.Access("ry", y, spec.Op{Kind: spec.OpRead}),
			program.Access("wx", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)}),
		)
		kids := []*program.Node{t1, t2}
		// Filler transactions on private objects keep the scheduler busy
		// past the 32-step detection boundary while the cycle persists, so
		// the eager path (not just quiescence) actually fires.
		for i := 0; i < 6; i++ {
			z := tr.AddObject(fmt.Sprintf("z%d", i), spec.Register{})
			kids = append(kids, program.SeqNode(fmt.Sprintf("f%d", i),
				program.Access("w", z, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)}),
				program.Access("r", z, spec.Op{Kind: spec.OpRead}),
			))
		}
		return &program.Node{Label: "T0", Mode: program.Par, Children: kids}
	}
	sawVictim := false
	for seed := int64(0); seed < 40; seed++ {
		tr := tname.NewTree()
		b, st, err := Run(tr, mkRoot(tr), Options{Seed: seed, Protocol: locking.Protocol{},
			EagerDeadlock: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := simple.CheckWellFormed(tr, b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.DeadlockVictims > 0 {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Error("expected at least one eager victim among 40 seeds")
	}
}

// abortingStub is a minimal object.Generic whose writes always demand a
// restart — it drives the runner's protocol-abort path without pulling in
// the MVTO package (which would create an import cycle in this test).
type abortingStub struct {
	created map[tname.TxID]bool
	tr      *tname.Tree
}

func (s *abortingStub) Create(t tname.TxID)                       { s.created[t] = true }
func (s *abortingStub) InformCommit(tname.TxID)                   {}
func (s *abortingStub) InformAbort(tname.TxID)                    {}
func (s *abortingStub) Blockers(_, out []tname.TxID) []tname.TxID { return out }
func (s *abortingStub) Blocked(tname.TxID) (tname.TxID, bool)     { return tname.None, false }
func (s *abortingStub) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !s.created[t] {
		return spec.Nil, false
	}
	op := s.tr.AccessOp(t)
	if spec.IsWrite(op) {
		return spec.Nil, false
	}
	delete(s.created, t)
	return spec.Int(0), true
}
func (s *abortingStub) ShouldAbort(t tname.TxID) bool {
	return s.created[t] && spec.IsWrite(s.tr.AccessOp(t))
}

type abortingProtocol struct{}

func (abortingProtocol) Name() string { return "aborting-stub" }
func (abortingProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	return &abortingStub{created: map[tname.TxID]bool{}, tr: tr}
}

// TestProtocolAbortPath: a protocol that rejects all writes forces the
// runner to abort the writing transactions; reads still commit.
func TestProtocolAbortPath(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	root := &program.Node{Label: "T0", Mode: program.Par, Children: []*program.Node{
		program.SeqNode("w", program.Access("wa", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})),
		program.SeqNode("r", program.Access("rd", x, spec.Op{Kind: spec.OpRead})),
	}}
	b, st, err := Run(tr, root, Options{Seed: 1, Protocol: abortingProtocol{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ProtocolAborts == 0 {
		t.Fatal("expected protocol aborts")
	}
	commits, aborts := b.CommitSet(), b.AbortSet()
	if !aborts[tr.Child(tname.Root, "w")] {
		t.Fatal("writer must be aborted")
	}
	if !commits[tr.Child(tname.Root, "r")] {
		t.Fatal("reader must commit")
	}
	if err := simple.CheckWellFormed(tr, b); err != nil {
		t.Fatal(err)
	}
}
