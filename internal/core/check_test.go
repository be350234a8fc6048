package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// referenceLess is R_trans's total extension written out from Rank: the
// children of lca(a, b) that a and b descend from, ranked ones first in
// rank order, unranked ones after them by name.
func referenceLess(tr *tname.Tree, order *SiblingOrder, a, b tname.TxID) bool {
	lca := tr.LCA(a, b)
	u, v := tr.ChildAncestor(lca, a), tr.ChildAncestor(lca, b)
	ru, okU := order.Rank(u)
	rv, okV := order.Rank(v)
	switch {
	case okU && okV:
		return ru < rv
	case okU || okV:
		return okU
	default:
		return u < v
	}
}

// referenceViews is view(β, T0, R, X) computed from the definitions: the
// visible operations of each object, in order of the object's first one,
// sorted by referenceLess and replayed through the object's specification.
func referenceViews(tr *tname.Tree, sg *SG, order *SiblingOrder) ([]View, error) {
	byObj := make(map[tname.ObjID][]event.AccessOp)
	var objs []tname.ObjID
	for _, op := range sg.VisibleOps {
		if _, ok := byObj[op.Obj]; !ok {
			objs = append(objs, op.Obj)
		}
		byObj[op.Obj] = append(byObj[op.Obj], op)
	}
	var out []View
	for _, x := range objs {
		ops := byObj[x]
		sort.Slice(ops, func(i, j int) bool { return referenceLess(tr, order, ops[i].Tx, ops[j].Tx) })
		xi := make([]spec.OpVal, len(ops))
		for i, op := range ops {
			xi[i] = op.OV
		}
		if ok, i := spec.IsBehavior(tr.Spec(x), xi); !ok {
			return nil, fmt.Errorf("view(β,T0,R,%s): operation %d (%s by %s) is not legal in the reordered sequence",
				tr.ObjectLabel(x), i, xi[i], tr.Name(ops[i].Tx))
		}
		out = append(out, View{Obj: x, Ops: ops})
	}
	return out, nil
}

// checkMatchesDefinitions pins Check, which decides Theorem 8's hypotheses
// in one pass, to the reference definitions applied to serial(β) one
// hypothesis at a time.
func checkMatchesDefinitions(t *testing.T, ctx string, tr *tname.Tree, b event.Behavior) *Result {
	t.Helper()
	res := Check(tr, b)
	serial := b.Serial()
	wantWF := simple.CheckWellFormed(tr, serial)
	if !reflect.DeepEqual(res.WFErr, wantWF) {
		t.Fatalf("%s: WFErr = %v, CheckWellFormed = %v", ctx, res.WFErr, wantWF)
	}
	if wantWF != nil {
		if res.SG != nil || res.OK {
			t.Fatalf("%s: a behavior that is not simple got a graph or a verdict", ctx)
		}
		return res
	}
	wantVals := simple.AppropriateReturnValues(tr, serial)
	if !reflect.DeepEqual(res.ValueViolations, wantVals) {
		t.Fatalf("%s: ValueViolations = %+v, AppropriateReturnValues = %+v", ctx, res.ValueViolations, wantVals)
	}
	if !res.SG.Equal(Build(tr, b)) {
		t.Fatalf("%s: Check's SG differs from Build's", ctx)
	}
	if len(wantVals) > 0 {
		return res
	}
	order, cyc := Build(tr, b).Acyclicity()
	if (cyc != nil) != (res.Cycle != nil) {
		t.Fatalf("%s: Cycle = %v, Acyclicity = %v", ctx, res.Cycle, cyc)
	}
	if cyc != nil {
		return res
	}
	wantViews, wantErr := referenceViews(tr, res.SG, order)
	if wantErr != nil {
		if res.ViewErr == nil || res.ViewErr.Error() != wantErr.Error() {
			t.Fatalf("%s: ViewErr = %v, reference = %v", ctx, res.ViewErr, wantErr)
		}
		return res
	}
	if !res.OK {
		t.Fatalf("%s: rejected a behavior every definition accepts: %s", ctx, res.Summary(tr))
	}
	got := res.Certificate.Order
	if !reflect.DeepEqual(got.ByParent, order.ByParent) {
		t.Fatalf("%s: sibling orders differ:\n got %v\nwant %v", ctx, got.ByParent, order.ByParent)
	}
	ranked := 0
	for _, kids := range order.ByParent {
		for i, k := range kids {
			if n, ok := got.Rank(k); !ok || n != i {
				t.Fatalf("%s: Rank(%d) = (%d, %v), want (%d, true)", ctx, k, n, ok, i)
			}
			ranked++
		}
	}
	for x := 0; x < tr.NumTx(); x++ {
		if _, ok := got.Rank(tname.TxID(x)); ok {
			ranked--
		}
	}
	if ranked != 0 {
		t.Fatalf("%s: the order ranks names ByParent does not list", ctx)
	}
	if !reflect.DeepEqual(res.Certificate.Views, wantViews) {
		t.Fatalf("%s: views differ:\n got %+v\nwant %+v", ctx, res.Certificate.Views, wantViews)
	}
	return res
}

// perturbVisibleValue returns a copy of b in which the first access visible
// to T0 returns a different value, with its REPORT_COMMIT changed to match so
// that the copy stays well-formed; ok is false when b has no visible access.
func perturbVisibleValue(sg *SG, b event.Behavior) (event.Behavior, bool) {
	if sg == nil || len(sg.VisibleOps) == 0 {
		return nil, false
	}
	tx, v := sg.VisibleOps[0].Tx, sg.VisibleOps[0].OV.Val
	w := spec.Int(1)
	if v.Kind == spec.VInt {
		w = spec.Int(v.Int + 1)
	}
	out := make(event.Behavior, len(b))
	copy(out, b)
	for i, e := range out {
		if e.Tx == tx && (e.Kind == event.RequestCommit || e.Kind == event.ReportCommit) {
			out[i].Val = w
		}
	}
	return out, true
}

// checkWithPerturbation runs checkMatchesDefinitions on b and on b with one
// visible return value changed.
func checkWithPerturbation(t *testing.T, ctx string, tr *tname.Tree, b event.Behavior) {
	t.Helper()
	res := checkMatchesDefinitions(t, ctx, tr, b)
	if pb, ok := perturbVisibleValue(res.SG, b); ok {
		checkMatchesDefinitions(t, ctx+" (perturbed)", tr, pb)
	}
}

func TestCheckMatchesDefinitions(t *testing.T) {
	valueFailures := 0
	for _, name := range []string{"moss", "broken"} {
		for seed := int64(0); seed < 20; seed++ {
			tr := tname.NewTree()
			b := protocolTrace(t, name, seed, tr)
			ctx := fmt.Sprintf("%s seed %d", name, seed)
			checkWithPerturbation(t, ctx, tr, b)
			if pb, ok := perturbVisibleValue(Build(tr, b), b); ok && len(Check(tr, pb).ValueViolations) > 0 {
				valueFailures++
			}
		}
	}
	if valueFailures == 0 {
		t.Error("no perturbed trace failed on its values; the value side is untested")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, names := randomSystem(rng)
		checkWithPerturbation(t, fmt.Sprintf("garbage seed %d", seed), tr, randomEvents(rng, tr, names, 1+rng.Intn(60)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckUnknownTransaction: a serial action naming a transaction the
// system type does not have is a well-formedness violation for every kind,
// reported exactly as simple.CheckWellFormed reports it.
func TestCheckUnknownTransaction(t *testing.T) {
	tr := tname.NewTree()
	kinds := []event.Kind{event.Create, event.RequestCreate, event.RequestCommit,
		event.Commit, event.Abort, event.ReportCommit, event.ReportAbort}
	for _, k := range kinds {
		for _, tx := range []tname.TxID{tname.TxID(tr.NumTx()), tname.None} {
			b := event.Behavior{event.NewEvent(k, tx)}
			want := simple.CheckWellFormed(tr, b)
			if want == nil {
				t.Fatalf("%v %d: CheckWellFormed accepts an unknown name", k, tx)
			}
			res := Check(tr, b)
			if !reflect.DeepEqual(res.WFErr, want) || res.WFErr.Error() != want.Error() {
				t.Errorf("%v %d: Check.WFErr = %v, want %v", k, tx, res.WFErr, want)
			}
		}
	}
}

// TestCheckValueViolationSummaries pins the report of a behavior whose
// return values are inappropriate, for a register and for two §6.1 types.
func TestCheckValueViolationSummaries(t *testing.T) {
	// run is one top-level transaction per access, each committed and
	// reported before the next is requested.
	run := func(tr *tname.Tree, accs []tname.TxID, vals []spec.Value) event.Behavior {
		b := event.Behavior{ev(event.Create, tname.Root)}
		for i, a := range accs {
			top := tr.Parent(a)
			b = append(b, ev(event.RequestCreate, top), ev(event.Create, top),
				ev(event.RequestCreate, a), ev(event.Create, a),
				evv(event.RequestCommit, a, vals[i]), ev(event.Commit, a), evv(event.ReportCommit, a, vals[i]),
				evv(event.RequestCommit, top, spec.Nil), ev(event.Commit, top), evv(event.ReportCommit, top, spec.Nil))
		}
		return b
	}
	for _, tc := range []struct {
		name string
		sp   spec.Spec
		ops  []spec.Op
		vals []spec.Value
		want string
	}{
		{"stale register read", spec.Register{},
			[]spec.Op{{Kind: spec.OpWrite, Arg: spec.Int(5)}, {Kind: spec.OpRead}},
			[]spec.Value{spec.OK, spec.Int(0)},
			"inappropriate return values: access T0/t1/a[x read] returned 0, serial spec requires 5 (visible event 15)"},
		{"wrong counter value", spec.Counter{},
			[]spec.Op{{Kind: spec.OpIncrement, Arg: spec.Int(2)}, {Kind: spec.OpIncrement, Arg: spec.Int(3)}, {Kind: spec.OpGet}},
			[]spec.Value{spec.OK, spec.OK, spec.Int(3)},
			"inappropriate return values: access T0/t2/a[x get] returned 3, serial spec requires 5 (visible event 25)"},
		{"wrong account balance", spec.Account{},
			[]spec.Op{{Kind: spec.OpDeposit, Arg: spec.Int(10)}, {Kind: spec.OpWithdraw, Arg: spec.Int(4)}, {Kind: spec.OpBalance}},
			[]spec.Value{spec.OK, spec.Bool(true), spec.Int(10)},
			"inappropriate return values: access T0/t2/a[x balance] returned 10, serial spec requires 6 (visible event 25)"},
	} {
		tr := tname.NewTree()
		x := tr.AddObject("x", tc.sp)
		var accs []tname.TxID
		for i, op := range tc.ops {
			top := tr.Child(tname.Root, fmt.Sprintf("t%d", i))
			accs = append(accs, tr.Access(top, "a", x, op))
		}
		b := run(tr, accs, tc.vals)
		res := checkMatchesDefinitions(t, tc.name, tr, b)
		if got := res.Summary(tr); got != tc.want {
			t.Errorf("%s: Summary = %q, want %q", tc.name, got, tc.want)
		}
	}
}
