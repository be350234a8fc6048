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
// referenceFreeze — the same graph, visible operations and DOT text — and,
// on top of each, the certificate: byte-identical cycle text, or the same
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
	wantOrder, wantCyc := want.Acyclicity()
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
	views, err := ComputeViews(tr, got, order)
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
