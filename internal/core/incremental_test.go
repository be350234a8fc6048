package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// sgEqual compares two serialization graphs structurally: same parents,
// same canonical children, same labeled edges, same visible operations.
func sgEqual(t *testing.T, ctx string, got, want *SG) {
	t.Helper()
	if !reflect.DeepEqual(got.VisibleOps, want.VisibleOps) {
		t.Fatalf("%s: VisibleOps differ:\n got %v\nwant %v", ctx, got.VisibleOps, want.VisibleOps)
	}
	if len(got.Parents()) != len(want.Parents()) {
		t.Fatalf("%s: parent sets differ: %d vs %d", ctx, len(got.Parents()), len(want.Parents()))
	}
	for p, wpg := range want.Parents() {
		gpg := got.Parent(p)
		if gpg == nil {
			t.Fatalf("%s: missing parent %d", ctx, p)
		}
		if !reflect.DeepEqual(gpg.Children, wpg.Children) {
			t.Fatalf("%s: SG(β,%d) children differ:\n got %v\nwant %v", ctx, p, gpg.Children, wpg.Children)
		}
		if !reflect.DeepEqual(gpg.Edges(), wpg.Edges()) {
			t.Fatalf("%s: SG(β,%d) edges differ:\n got %v\nwant %v", ctx, p, gpg.Edges(), wpg.Edges())
		}
	}
}

// cycleEqual compares cycle certificates field by field.
func cycleEqual(t *testing.T, ctx string, got, want *Cycle) {
	t.Helper()
	if got.Parent != want.Parent || !reflect.DeepEqual(got.Nodes, want.Nodes) ||
		!reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Fatalf("%s: cycles differ:\n got %+v\nwant %+v", ctx, got, want)
	}
}

// checkDifferential runs the full streaming-vs-offline comparison on one
// trace: identical snapshots on every outcome, the rejection prefix is
// shortest, and certificates (cycle or sibling ranks) agree.
func checkDifferential(t *testing.T, ctx string, tr *tname.Tree, b event.Behavior) (rejected bool) {
	t.Helper()
	inc := NewIncremental(tr)
	var firstCyc *Cycle
	at := -1
	for i, e := range b {
		if cyc := inc.Append(e); cyc != nil && firstCyc == nil {
			firstCyc = cyc
			_, at = inc.Rejected()
			if at != i {
				t.Fatalf("%s: rejection reported at %d while appending event %d", ctx, at, i)
			}
		}
	}
	full := Build(tr, b)
	_, fullCyc := full.Acyclicity()

	if firstCyc == nil {
		if fullCyc != nil {
			t.Fatalf("%s: stream accepted but Build found %+v", ctx, fullCyc)
		}
		sgEqual(t, ctx+" (accepted)", inc.Snapshot(), full)
		// Certificates: identical sibling ranks.
		incOrder, incCyc := inc.Snapshot().Acyclicity()
		fullOrder, _ := full.Acyclicity()
		if incCyc != nil {
			t.Fatalf("%s: snapshot of accepted stream is cyclic", ctx)
		}
		if !reflect.DeepEqual(incOrder.ByParent, fullOrder.ByParent) {
			t.Fatalf("%s: sibling orders differ:\n got %v\nwant %v", ctx, incOrder.ByParent, fullOrder.ByParent)
		}
		return false
	}

	if fullCyc == nil {
		t.Fatalf("%s: stream rejected at %d but Build is acyclic", ctx, at)
	}
	// The rejection prefix is the shortest bad one, and its certificate is
	// Build's certificate for that prefix.
	prefix := Build(tr, b[:at+1])
	_, wantCyc := prefix.Acyclicity()
	if wantCyc == nil {
		t.Fatalf("%s: Build(β[:%d]) acyclic despite stream rejection there", ctx, at+1)
	}
	cycleEqual(t, ctx, firstCyc, wantCyc)
	if at > 0 {
		before := Build(tr, b[:at])
		if _, c := before.Acyclicity(); c != nil {
			t.Fatalf("%s: Build(β[:%d]) already cyclic; rejection at %d is not the shortest prefix", ctx, at, at)
		}
	}
	sgEqual(t, ctx+" (rejected)", inc.Snapshot(), full)
	return true
}

// protocolTrace generates a trace from a real protocol run — the moss
// locking protocol (correct) or a broken undo-log variant (cyclic).
func protocolTrace(t *testing.T, name string, seed int64, tr *tname.Tree) event.Behavior {
	t.Helper()
	switch name {
	case "moss":
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 6, Depth: 1,
			Fanout: 3, Objects: 2, HotProb: 0.7, ParProb: 0.7, ReadRatio: 0.5})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 3, Protocol: locking.Protocol{},
			AbortProb: 0.02, MaxAborts: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return b
	case "broken":
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 5, Depth: 1,
			Fanout: 3, Objects: 1, HotProb: 1, ParProb: 0.9, ReadRatio: 0.5})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 7,
			Protocol: undolog.BrokenProtocol{Mode: undolog.SkipCommute}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return b
	}
	t.Fatalf("unknown source %q", name)
	return nil
}

// TestIncrementalMatchesBuildOnWorkloads: full differential over generated
// traces from a correct protocol and a violation-producing one.
func TestIncrementalMatchesBuildOnWorkloads(t *testing.T) {
	for _, name := range []string{"moss", "broken"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rejections := 0
			for seed := int64(0); seed < 20; seed++ {
				tr := tname.NewTree()
				b := protocolTrace(t, name, seed, tr)
				if checkDifferential(t, name, tr, b) {
					rejections++
				}
			}
			if name == "broken" && rejections == 0 {
				t.Error("broken source produced no rejections; the cyclic side is untested")
			}
			if name == "moss" && rejections != 0 {
				t.Error("moss protocol must never produce a cyclic SG")
			}
		})
	}
}

// TestIncrementalPrefixInvariant: after every single event, the streaming
// state snapshots to exactly Build of that prefix — the strong form of the
// prefix-correctness claim, on a trace small enough to afford O(n²) checks.
func TestIncrementalPrefixInvariant(t *testing.T) {
	tr := tname.NewTree()
	b := protocolTrace(t, "moss", 3, tr)
	if len(b) > 120 {
		b = b[:120]
	}
	inc := NewIncremental(tr)
	for i, e := range b {
		if cyc := inc.Append(e); cyc != nil {
			t.Fatalf("moss prefix rejected at %d", i)
		}
		sgEqual(t, "prefix", inc.Snapshot(), Build(tr, b[:i+1]))
	}
}

// TestIncrementalMatchesBuildOnGarbage: prefix semantics must also hold on
// arbitrary ill-formed event soup — the construction is defined for any
// serial-action sequence.
func TestIncrementalMatchesBuildOnGarbage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, names := randomSystem(rng)
		b := randomEvents(rng, tr, names, 1+rng.Intn(60))
		inc := NewIncremental(tr)
		var at = -1
		for _, e := range b {
			if cyc := inc.Append(e); cyc != nil && at < 0 {
				_, at = inc.Rejected()
			}
		}
		full := Build(tr, b)
		if !reflect.DeepEqual(inc.Snapshot().VisibleOps, full.VisibleOps) {
			return false
		}
		_, fullCyc := full.Acyclicity()
		if (at >= 0) != (fullCyc != nil) {
			return false
		}
		if at >= 0 {
			if _, c := Build(tr, b[:at+1]).Acyclicity(); c == nil {
				return false
			}
			if at > 0 {
				if _, c := Build(tr, b[:at]).Acyclicity(); c != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamPrefixReportsRawIndex: the reported index addresses the raw
// event stream (what sgcheck -stream prints), including non-serial events.
func TestStreamPrefixReportsRawIndex(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := tname.NewTree()
		b := protocolTrace(t, "broken", seed, tr)
		at, cyc := StreamPrefix(tr, b)
		if at < 0 {
			continue
		}
		if cyc == nil {
			t.Fatalf("seed %d: index without certificate", seed)
		}
		if at >= len(b) {
			t.Fatalf("seed %d: index %d out of range", seed, at)
		}
		if _, c := Build(tr, b[:at+1]).Acyclicity(); c == nil {
			t.Fatalf("seed %d: prefix %d not cyclic", seed, at+1)
		}
		return
	}
	t.Fatal("no rejecting trace found")
}

// FuzzIncrementalDifferential decodes fuzz-discovered traces and pins the
// streaming checker to the batch entry points, and Check's one pass to the
// reference definitions on the trace and on a copy with one visible return
// value changed. Seeds come from the committed FuzzTraceRoundTrip corpus.
func FuzzIncrementalDifferential(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, b, err := event.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDifferential(t, "fuzz", tr, b)
		checkWithPerturbation(t, "fuzz", tr, b)
		checkAgainstDifferential(t, "fuzz", tr, b, -1)
		checkReference(t, "fuzz", tr, b)
	})
}

// checkAgainstDifferential feeds an online engine every event of b, INFORMs
// included, except the one at index skip (none when skip < 0), and pins
// CheckAgainst to Check: the same Result on every hypothesis, and a match
// that the materialized online graph confirms. It returns the match.
func checkAgainstDifferential(t *testing.T, ctx string, tr *tname.Tree, b event.Behavior, skip int) bool {
	t.Helper()
	online := NewIncremental(tr)
	for i, e := range b {
		if i != skip {
			online.Append(e)
		}
	}
	res, match := NewChecker(tr).CheckAgainst(b, online)
	want := Check(tr, b)
	if !reflect.DeepEqual(res.WFErr, want.WFErr) || !reflect.DeepEqual(res.ValueViolations, want.ValueViolations) ||
		!reflect.DeepEqual(res.Cycle, want.Cycle) || !reflect.DeepEqual(res.ViewErr, want.ViewErr) || res.OK != want.OK {
		t.Fatalf("%s: CheckAgainst says %q, Check says %q", ctx, res.Summary(tr), want.Summary(tr))
	}
	if (res.SG == nil) != (want.SG == nil) || res.SG != nil && !res.SG.Equal(want.SG) {
		t.Fatalf("%s: CheckAgainst's SG differs from Check's", ctx)
	}
	if want.OK && (!reflect.DeepEqual(res.Certificate.Order.ByParent, want.Certificate.Order.ByParent) ||
		!reflect.DeepEqual(res.Certificate.Views, want.Certificate.Views)) {
		t.Fatalf("%s: CheckAgainst's certificate differs from Check's", ctx)
	}
	if skip < 0 && match != (want.WFErr == nil) {
		t.Fatalf("%s: match = %v for an engine fed all of a behavior whose WFErr is %v", ctx, match, want.WFErr)
	}
	if match && !online.Snapshot().Equal(res.SG) {
		t.Fatalf("%s: records match, but the online snapshot differs from the batch SG", ctx)
	}
	// The same check read through a source that decodes in short runs.
	src, srcMatch := NewChecker(tr).CheckAgainst(runSource{b}, online)
	if src.Summary(tr) != want.Summary(tr) || srcMatch != match || !reflect.DeepEqual(src.ValueViolations, want.ValueViolations) ||
		(src.SG == nil) != (want.SG == nil) || src.SG != nil && !src.SG.Equal(want.SG) {
		t.Fatalf("%s: through a source, CheckAgainst says %q (match %v), on the behavior %q (match %v)",
			ctx, src.Summary(tr), srcMatch, want.Summary(tr), match)
	}
	return match
}

// TestCheckAgainstMatchesCheck runs checkAgainstDifferential over protocol
// traces, with their INFORMs, and over event soup; and on a run whose
// online engine skipped one serial event, where it must not match.
func TestCheckAgainstMatchesCheck(t *testing.T) {
	for _, name := range []string{"moss", "broken"} {
		for seed := int64(0); seed < 10; seed++ {
			tr := tname.NewTree()
			b := protocolTrace(t, name, seed, tr)
			if !checkAgainstDifferential(t, fmt.Sprintf("%s seed %d", name, seed), tr, b, -1) {
				t.Fatalf("%s seed %d: an engine fed the whole behavior does not match", name, seed)
			}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, names := randomSystem(rng)
		checkAgainstDifferential(t, fmt.Sprintf("soup %d", seed), tr, randomEvents(rng, tr, names, 1+rng.Intn(60)), -1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Without COMMIT(t2), r2 never becomes visible to the online engine,
	// so it lacks the conflict edge t1 → t2 the batch construction has.
	fx := newFix(t)
	b := fx.wellFormedRun(spec.Int(5))
	skip := slices.Index(b, ev(event.Commit, fx.t2))
	if checkAgainstDifferential(t, "skipped COMMIT(t2)", fx.tr, b, skip) {
		t.Fatal("an engine that skipped COMMIT(t2) matches the batch construction")
	}
	if res, match := NewChecker(fx.tr).CheckAgainst(b, nil); !res.OK || match {
		t.Fatalf("CheckAgainst(b, nil) = (%s, %v), want a pass without a match", res.Summary(fx.tr), match)
	}
}

// TestIncrementalCountsMatchRecount: the O(1) Counts must equal a full
// recount over the materialized parent graphs after every Append, on
// protocol traces and on event soup, across Reset — one Incremental is
// reused for every stream over a tree, as the pooled checker does.
func TestIncrementalCountsMatchRecount(t *testing.T) {
	check := func(inc *Incremental, b event.Behavior) bool {
		for _, e := range b {
			inc.Append(e)
			parents, nodes, edges := inc.Counts()
			wantNodes, wantEdges := 0, 0
			r := &inc.sg
			for _, p := range r.parents {
				for c := r.names[p].firstKid; c >= 0; c = r.names[c].next {
					wantNodes++
				}
				for i := r.names[p].firstEdge; i >= 0; i = r.recs[i].next {
					wantEdges++
				}
			}
			if parents != len(r.parents) || nodes != wantNodes || edges != wantEdges {
				t.Errorf("Counts() = (%d, %d, %d), recount (%d, %d, %d)",
					parents, nodes, edges, len(r.parents), wantNodes, wantEdges)
				return false
			}
		}
		return true
	}
	for _, name := range []string{"moss", "broken"} {
		tr := tname.NewTree()
		b := protocolTrace(t, name, 5, tr)
		inc := NewIncremental(tr)
		for round := 0; round < 2; round++ {
			if !check(inc, b) {
				t.Fatalf("%s: round %d", name, round)
			}
			inc.Reset()
			if p, n, e := inc.Counts(); p != 0 || n != 0 || e != 0 {
				t.Fatalf("%s: Counts() after Reset = (%d, %d, %d)", name, p, n, e)
			}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, names := randomSystem(rng)
		inc := NewIncremental(tr)
		for round := 0; round < 3; round++ {
			if !check(inc, randomEvents(rng, tr, names, 1+rng.Intn(60))) {
				return false
			}
			inc.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
