package core

import (
	"strings"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// fix mirrors the classical two-transaction scenario nested one level:
//
//	T0 ── t1 ── w1 (write x=5), and t2 ── r2 (read x)
type fix struct {
	tr             *tname.Tree
	x              tname.ObjID
	t1, t2, w1, r2 tname.TxID
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
	return f
}

func ev(k event.Kind, tx tname.TxID) event.Event { return event.NewEvent(k, tx) }
func evv(k event.Kind, tx tname.TxID, v spec.Value) event.Event {
	return event.NewValEvent(k, tx, v)
}

// wellFormedRun produces a complete committed run where w1 happens before
// r2 and r2 reads readVal.
func (f *fix) wellFormedRun(readVal spec.Value) event.Behavior {
	return event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1),
		ev(event.RequestCreate, f.t2),
		ev(event.Create, f.t1),
		ev(event.Create, f.t2),
		ev(event.RequestCreate, f.w1),
		ev(event.Create, f.w1),
		evv(event.RequestCommit, f.w1, spec.OK),
		ev(event.Commit, f.w1),
		evv(event.ReportCommit, f.w1, spec.OK),
		evv(event.RequestCommit, f.t1, spec.Nil),
		ev(event.Commit, f.t1),
		ev(event.RequestCreate, f.r2),
		ev(event.Create, f.r2),
		evv(event.RequestCommit, f.r2, readVal),
		ev(event.Commit, f.r2),
		evv(event.ReportCommit, f.r2, readVal),
		evv(event.RequestCommit, f.t2, spec.Nil),
		ev(event.Commit, f.t2),
		evv(event.ReportCommit, f.t1, spec.Nil),
		evv(event.ReportCommit, f.t2, spec.Nil),
	}
}

func TestBuildConflictEdge(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	pg := sg.Parent(tname.Root)
	if pg == nil {
		t.Fatal("SG(β,T0) missing")
	}
	kind, ok := pg.HasEdge(f.t1, f.t2)
	if !ok || kind&EdgeConflict == 0 {
		t.Fatalf("expected conflict edge t1 -> t2, edges: %v", pg.Edges())
	}
	if _, ok := pg.HasEdge(f.t2, f.t1); ok {
		t.Error("no reverse edge expected")
	}
	if sg.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", sg.NumEdges())
	}
	if len(sg.VisibleOps) != 2 {
		t.Errorf("VisibleOps = %d", len(sg.VisibleOps))
	}
}

func TestBuildIgnoresInvisibleConflicts(t *testing.T) {
	f := newFix(t)
	b := f.wellFormedRun(spec.Int(5))
	// Remove COMMIT(t1) and its report: w1 becomes invisible to T0, so no
	// conflict edge (and r2's value is then inappropriate — but Build does
	// not care about values).
	var filtered event.Behavior
	for _, e := range b {
		if (e.Kind == event.Commit || e.Kind == event.ReportCommit) && e.Tx == f.t1 {
			continue
		}
		filtered = append(filtered, e)
	}
	sg := Build(f.tr, filtered)
	if sg.NumEdges() != 0 {
		t.Errorf("invisible access must not produce edges; got %d", sg.NumEdges())
	}
}

func TestBuildReadsDoNotConflict(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	t1 := tr.Child(tname.Root, "t1")
	t2 := tr.Child(tname.Root, "t2")
	r1 := tr.Access(t1, "r1", x, spec.Op{Kind: spec.OpRead})
	r2 := tr.Access(t2, "r2", x, spec.Op{Kind: spec.OpRead})
	b := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, t1), ev(event.RequestCreate, t2),
		ev(event.Create, t1), ev(event.Create, t2),
		ev(event.RequestCreate, r1), ev(event.Create, r1),
		evv(event.RequestCommit, r1, spec.Int(0)), ev(event.Commit, r1),
		ev(event.RequestCreate, r2), ev(event.Create, r2),
		evv(event.RequestCommit, r2, spec.Int(0)), ev(event.Commit, r2),
		evv(event.ReportCommit, r1, spec.Int(0)), evv(event.ReportCommit, r2, spec.Int(0)),
		evv(event.RequestCommit, t1, spec.Nil), ev(event.Commit, t1),
		evv(event.RequestCommit, t2, spec.Nil), ev(event.Commit, t2),
	}
	sg := Build(tr, b)
	if sg.NumEdges() != 0 {
		t.Errorf("read/read must not conflict; got %d edges", sg.NumEdges())
	}
}

func TestBuildPrecedesEdge(t *testing.T) {
	f := newFix(t)
	// t1 runs fully and is reported before T0 requests t2: external
	// consistency demands a precedes edge even without data conflicts.
	b := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1),
		ev(event.Create, f.t1),
		evv(event.RequestCommit, f.t1, spec.Nil),
		ev(event.Commit, f.t1),
		evv(event.ReportCommit, f.t1, spec.Nil),
		ev(event.RequestCreate, f.t2),
		ev(event.Create, f.t2),
		evv(event.RequestCommit, f.t2, spec.Nil),
		ev(event.Commit, f.t2),
		evv(event.ReportCommit, f.t2, spec.Nil),
	}
	sg := Build(f.tr, b)
	pg := sg.Parent(tname.Root)
	if pg == nil {
		t.Fatal("SG(β,T0) missing")
	}
	kind, ok := pg.HasEdge(f.t1, f.t2)
	if !ok || kind&EdgePrecedes == 0 {
		t.Fatal("expected precedes edge t1 -> t2")
	}
	// Report of an aborted sibling also precedes later requests.
	b2 := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1),
		ev(event.Abort, f.t1),
		ev(event.ReportAbort, f.t1),
		ev(event.RequestCreate, f.t2),
	}
	sg2 := Build(f.tr, b2)
	if pg2 := sg2.Parent(tname.Root); pg2 == nil {
		t.Fatal("SG missing for abort-then-request")
	} else if kind, ok := pg2.HasEdge(f.t1, f.t2); !ok || kind&EdgePrecedes == 0 {
		t.Error("expected precedes edge from aborted t1 to t2")
	}
}

func TestEdgeKindString(t *testing.T) {
	if EdgeConflict.String() != "conflict" || EdgePrecedes.String() != "precedes" {
		t.Error("edge kind names wrong")
	}
	if (EdgeConflict | EdgePrecedes).String() != "conflict+precedes" {
		t.Error("combined edge kind name wrong")
	}
	if EdgeKind(0).String() != "none" {
		t.Error("zero edge kind name wrong")
	}
}

func TestAcyclicityCertificate(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	order, cycle := sg.Acyclicity()
	if cycle != nil {
		t.Fatalf("unexpected cycle: %s", cycle.Format(f.tr))
	}
	if !order.CompareSiblings(f.t1, f.t2) {
		t.Error("R must order t1 before t2")
	}
	if order.Less(f.w1, f.r2) != true {
		t.Error("R_trans must order w1's ops before r2's")
	}
	r1, ok1 := order.Rank(f.t1)
	r2, ok2 := order.Rank(f.t2)
	if !ok1 || !ok2 || r1 >= r2 {
		t.Errorf("ranks: %d,%v %d,%v", r1, ok1, r2, ok2)
	}
}

func TestCompareSiblingsTotal(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	order, _ := sg.Acyclicity()
	t3 := f.tr.Child(tname.Root, "t3") // never appears in β: unranked
	t4 := f.tr.Child(tname.Root, "t4")
	if !order.CompareSiblings(f.t1, t3) {
		t.Error("ranked siblings order before unranked ones")
	}
	if order.CompareSiblings(t3, f.t1) {
		t.Error("unranked after ranked")
	}
	if !order.CompareSiblings(t3, t4) || order.CompareSiblings(t4, t3) {
		t.Error("unranked siblings ordered by name")
	}
	if order.CompareSiblings(t3, t3) {
		t.Error("irreflexive")
	}
}

func TestLessPanicsOnAncestry(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	order, _ := sg.Acyclicity()
	defer func() {
		if recover() == nil {
			t.Error("Less on ancestor/descendant must panic")
		}
	}()
	order.Less(f.t1, f.w1)
}

func TestCycleDetectionAndFormat(t *testing.T) {
	f := newFix(t)
	// Interleave conflicting accesses so that edges go both ways:
	// w1 (t1) ... r2 (t2) ... w1b (t1) — r2 after w1 gives t1→t2; a second
	// write by t1 after r2 gives t2→t1.
	w1b := f.tr.Access(f.t1, "w1b", f.x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)})
	b := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, f.t1), ev(event.RequestCreate, f.t2),
		ev(event.Create, f.t1), ev(event.Create, f.t2),
		ev(event.RequestCreate, f.w1), ev(event.Create, f.w1),
		evv(event.RequestCommit, f.w1, spec.OK), ev(event.Commit, f.w1),
		evv(event.ReportCommit, f.w1, spec.OK),
		ev(event.RequestCreate, f.r2), ev(event.Create, f.r2),
		evv(event.RequestCommit, f.r2, spec.Int(5)), ev(event.Commit, f.r2),
		evv(event.ReportCommit, f.r2, spec.Int(5)),
		ev(event.RequestCreate, w1b), ev(event.Create, w1b),
		evv(event.RequestCommit, w1b, spec.OK), ev(event.Commit, w1b),
		evv(event.ReportCommit, w1b, spec.OK),
		evv(event.RequestCommit, f.t1, spec.Nil), ev(event.Commit, f.t1),
		evv(event.RequestCommit, f.t2, spec.Nil), ev(event.Commit, f.t2),
	}
	sg := Build(f.tr, b)
	order, cycle := sg.Acyclicity()
	if order != nil || cycle == nil {
		t.Fatal("expected a cycle")
	}
	if cycle.Parent != tname.Root || len(cycle.Nodes) != 2 {
		t.Fatalf("cycle = %+v", cycle)
	}
	msg := cycle.Format(f.tr)
	if !strings.Contains(msg, "cycle in SG") || !strings.Contains(msg, "conflict") {
		t.Errorf("cycle message: %s", msg)
	}
}

func TestCheckAccepts(t *testing.T) {
	f := newFix(t)
	res := Check(f.tr, f.wellFormedRun(spec.Int(5)))
	if !res.OK {
		t.Fatalf("check failed: %s", res.Summary(f.tr))
	}
	if res.Certificate == nil || len(res.Certificate.Views) != 1 {
		t.Fatal("certificate missing or views wrong")
	}
	view := res.Certificate.Views[0]
	if len(view.Ops) != 2 || view.Ops[0].Tx != f.w1 || view.Ops[1].Tx != f.r2 {
		t.Errorf("view order wrong: %+v", view.Ops)
	}
	if !strings.Contains(res.Summary(f.tr), "serially correct") {
		t.Errorf("summary: %s", res.Summary(f.tr))
	}
	if s := FormatCertificate(f.tr, res.Certificate); !strings.Contains(s, "view at x") {
		t.Errorf("certificate rendering: %s", s)
	}
}

func TestCheckRejectsBadValue(t *testing.T) {
	f := newFix(t)
	res := Check(f.tr, f.wellFormedRun(spec.Int(99)))
	if res.OK || len(res.ValueViolations) == 0 {
		t.Fatalf("expected value violations, got %s", res.Summary(f.tr))
	}
	if !strings.Contains(res.Summary(f.tr), "inappropriate return values") {
		t.Errorf("summary: %s", res.Summary(f.tr))
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	f := newFix(t)
	b := event.Behavior{ev(event.Create, f.t1)} // create without request
	res := Check(f.tr, b)
	if res.OK || res.WFErr == nil {
		t.Fatal("expected a well-formedness failure")
	}
	if !strings.Contains(res.Summary(f.tr), "not a simple behavior") {
		t.Errorf("summary: %s", res.Summary(f.tr))
	}
}

func TestCheckIgnoresInformEvents(t *testing.T) {
	f := newFix(t)
	b := f.wellFormedRun(spec.Int(5))
	withInforms := make(event.Behavior, 0, len(b)+2)
	withInforms = append(withInforms, b[:9]...)
	withInforms = append(withInforms, event.NewInform(event.InformCommit, f.w1, f.x))
	withInforms = append(withInforms, b[9:]...)
	res := Check(f.tr, withInforms)
	if !res.OK {
		t.Fatalf("informs must be transparent: %s", res.Summary(f.tr))
	}
}

func TestAuditSuitabilityAccepts(t *testing.T) {
	f := newFix(t)
	b := f.wellFormedRun(spec.Int(5))
	res := Check(f.tr, b)
	if !res.OK {
		t.Fatal(res.Summary(f.tr))
	}
	if err := AuditSuitability(f.tr, b, res.Certificate.Order); err != nil {
		t.Fatal(err)
	}
}

func TestDOTRendering(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	dot := sg.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "t1") {
		t.Errorf("DOT output: %s", dot)
	}
}

// TestDeepNestingConflictPlacement: conflicting accesses deep in two
// different subtrees must induce an edge at the children of the LCA, not at
// T0 when the LCA is lower.
func TestDeepNestingConflictPlacement(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	p := tr.Child(tname.Root, "p")
	c1 := tr.Child(p, "c1")
	c2 := tr.Child(p, "c2")
	w := tr.Access(c1, "w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
	r := tr.Access(c2, "r", x, spec.Op{Kind: spec.OpRead})
	b := event.Behavior{
		ev(event.Create, tname.Root),
		ev(event.RequestCreate, p), ev(event.Create, p),
		ev(event.RequestCreate, c1), ev(event.RequestCreate, c2),
		ev(event.Create, c1), ev(event.Create, c2),
		ev(event.RequestCreate, w), ev(event.Create, w),
		evv(event.RequestCommit, w, spec.OK), ev(event.Commit, w),
		evv(event.ReportCommit, w, spec.OK),
		evv(event.RequestCommit, c1, spec.Nil), ev(event.Commit, c1),
		ev(event.RequestCreate, r), ev(event.Create, r),
		evv(event.RequestCommit, r, spec.Int(1)), ev(event.Commit, r),
		evv(event.ReportCommit, r, spec.Int(1)),
		evv(event.RequestCommit, c2, spec.Nil), ev(event.Commit, c2),
		evv(event.ReportCommit, c1, spec.Nil), evv(event.ReportCommit, c2, spec.Nil),
		evv(event.RequestCommit, p, spec.Nil), ev(event.Commit, p),
		evv(event.ReportCommit, p, spec.Nil),
	}
	sg := Build(tr, b)
	pg := sg.Parent(p)
	if pg == nil {
		t.Fatal("SG(β,p) missing")
	}
	if _, ok := pg.HasEdge(c1, c2); !ok {
		t.Error("conflict edge must appear between c1 and c2 under p")
	}
	if pgRoot := sg.Parent(tname.Root); pgRoot != nil {
		if _, ok := pgRoot.HasEdge(p, p); ok {
			t.Error("no self edge at T0")
		}
		for _, e := range pgRoot.Edges() {
			if e.From == e.To {
				t.Error("self edge recorded")
			}
		}
	}
	res := Check(tr, b)
	if !res.OK {
		t.Fatalf("check: %s", res.Summary(tr))
	}
}

func TestSummaryVariants(t *testing.T) {
	f := newFix(t)
	// OK summary covered elsewhere; cover malformed, value, view paths.
	res := Check(f.tr, event.Behavior{ev(event.Create, f.t1)})
	if s := res.Summary(f.tr); s == "" || res.WFErr == nil {
		t.Errorf("malformed summary: %q", s)
	}
	res = Check(f.tr, f.wellFormedRun(spec.Int(99)))
	if s := res.Summary(f.tr); s == "" || len(res.ValueViolations) == 0 {
		t.Errorf("value summary: %q", s)
	}
	empty := &Result{}
	if empty.Summary(f.tr) != "unknown failure" {
		t.Error("empty result summary")
	}
}

func TestHasEdgeUnknownNodes(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	pg := sg.Parent(tname.Root)
	stranger := f.tr.Child(tname.Root, "stranger")
	if _, ok := pg.HasEdge(stranger, f.t1); ok {
		t.Error("edge from unknown node")
	}
	if _, ok := pg.HasEdge(f.t1, stranger); ok {
		t.Error("edge to unknown node")
	}
}

func TestSortSiblings(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	order, _ := sg.Acyclicity()
	got := order.SortSiblings([]tname.TxID{f.t2, f.t1})
	if len(got) != 2 || got[0] != f.t1 || got[1] != f.t2 {
		t.Errorf("sorted = %v", got)
	}
	// Input must not be mutated.
	in := []tname.TxID{f.t2, f.t1}
	order.SortSiblings(in)
	if in[0] != f.t2 {
		t.Error("SortSiblings mutated its input")
	}
}

// TestParentsReturnsDefensiveCopy: the map returned by SG.Parents is a
// fresh copy on every call, so callers deleting or overwriting entries
// cannot corrupt the SG — a regression test for the former implementation
// that leaked the internal index.
func TestParentsReturnsDefensiveCopy(t *testing.T) {
	f := newFix(t)
	sg := Build(f.tr, f.wellFormedRun(spec.Int(5)))
	if sg.NumParents() == 0 {
		t.Fatal("expected at least one materialized parent graph")
	}
	before := sg.NumEdges()

	m := sg.Parents()
	for p := range m {
		delete(m, p)
	}
	m[tname.Root] = nil

	if sg.NumParents() == 0 || sg.NumEdges() != before {
		t.Fatalf("mutating Parents() corrupted the SG: %d parents, %d edges (want %d)",
			sg.NumParents(), sg.NumEdges(), before)
	}
	m2 := sg.Parents()
	if len(m2) != sg.NumParents() {
		t.Fatalf("second Parents() call returned %d entries, want %d", len(m2), sg.NumParents())
	}
	for p, pg := range m2 {
		if pg == nil || pg.Parent != p {
			t.Fatalf("second Parents() call returned corrupted entry for %v", p)
		}
	}
}

// TestSGEqual: Equal compares parents, children and labelled edges. Two
// graphs that differ only in one edge's kind render the same DOT, and Equal
// still tells them apart.
func TestSGEqual(t *testing.T) {
	f := newFix(t)
	b := f.wellFormedRun(spec.Int(5))
	for _, c := range []struct {
		name             string
		mutate           func(sg *SG)
		wantEq, wantDOTs bool
	}{
		{"same", func(*SG) {}, true, true},
		{"edge kind", func(sg *SG) { sg.Parent(tname.Root).edges[0].Kind |= EdgePrecedes }, false, true},
		{"edge missing", func(sg *SG) {
			sg.Parent(tname.Root).edges = nil
		}, false, false},
		{"child", func(sg *SG) { sg.Parent(tname.Root).Children[1] = f.w1 }, false, false},
		{"parent missing", func(sg *SG) { sg.parents = nil }, false, false},
	} {
		want, got := Build(f.tr, b), Build(f.tr, b)
		c.mutate(got)
		if eq := got.Equal(want); eq != c.wantEq {
			t.Errorf("%s: Equal = %v, want %v", c.name, eq, c.wantEq)
		}
		if eq := want.Equal(got); eq != c.wantEq {
			t.Errorf("%s: Equal is not symmetric", c.name)
		}
		if dots := got.DOT() == want.DOT(); dots != c.wantDOTs {
			t.Errorf("%s: DOT equal = %v, want %v", c.name, dots, c.wantDOTs)
		}
	}
}
