package core

import (
	"math/rand"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/tname"
)

// edgeRecord is one edge record of an Incremental, kept in TxID space so
// it can be replayed into a Composer in any order.
type edgeRecord struct {
	parent, from, to tname.TxID
	kind             EdgeKind
}

// collectEdges streams b through an Incremental and returns its deduped
// edge records, parent graph by parent graph.
func collectEdges(tr *tname.Tree, b event.Behavior) []edgeRecord {
	inc := NewIncremental(tr)
	for _, e := range b {
		inc.Append(e)
	}
	r := &inc.sg
	var recs []edgeRecord
	for _, p := range r.parents {
		for i := r.names[p].firstEdge; i >= 0; i = r.recs[i].next {
			e := r.recs[i]
			recs = append(recs, edgeRecord{p, e.from, e.to, e.kind})
		}
	}
	return recs
}

// add feeds one record to c the way Absorb does, reporting whether it was
// new.
func (c *Composer) add(r edgeRecord) bool {
	c.sg.grow()
	return c.sg.add(r.parent, r.from, r.to, r.kind)
}

// TestComposerMatchesBuild: replaying an Incremental's edge records into
// a Composer reconstructs SG(β) byte-for-byte, on protocol traces and on
// random event soup, cyclic traces included.
func TestComposerMatchesBuild(t *testing.T) {
	for _, proto := range []string{"moss", "broken"} {
		for seed := int64(0); seed < 30; seed++ {
			tr := tname.NewTree()
			b := protocolTrace(t, proto, seed, tr)
			verifyComposed(t, tr, b)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		tr, names := randomSystem(rng)
		b := randomEvents(rng, tr, names, 30+rng.Intn(40))
		verifyComposed(t, tr, b)
	}
}

func verifyComposed(t *testing.T, tr *tname.Tree, b event.Behavior) {
	t.Helper()
	recs := collectEdges(tr, b)
	want := Build(tr, b)

	comp := NewComposer(tr)
	for _, r := range recs {
		comp.add(r)
	}
	if got, w := comp.Snapshot().DOT(), want.DOT(); got != w {
		t.Fatalf("composed snapshot diverges from Build:\n--- composed ---\n%s\n--- build ---\n%s", got, w)
	}
	_, cyc := want.Acyclicity()
	if comp.Cyclic() != (cyc != nil) {
		t.Fatalf("composed verdict cyclic=%v, Build cyclic=%v", comp.Cyclic(), cyc != nil)
	}

	// Arrival order must not matter: replay the records reversed, with
	// every record delivered twice (a partition re-deriving an edge
	// another partition already shipped is the common case).
	comp2 := NewComposer(tr)
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		comp2.add(r)
		if comp2.add(r) {
			t.Fatalf("duplicate record reported as new: %+v", r)
		}
	}
	if got, w := comp2.Snapshot().DOT(), want.DOT(); got != w {
		t.Fatalf("reversed replay diverges from Build:\n%s\n%s", got, w)
	}
	if comp2.Cyclic() != (cyc != nil) {
		t.Fatalf("reversed replay verdict cyclic=%v, Build cyclic=%v", comp2.Cyclic(), cyc != nil)
	}
}

// TestComposerReset: Reset rewinds to the empty graph and a second
// composition over the same tree reproduces the same bytes.
func TestComposerReset(t *testing.T) {
	tr := tname.NewTree()
	b := protocolTrace(t, "moss", 5, tr)
	recs := collectEdges(tr, b)
	comp := NewComposer(tr)
	feed := func() {
		for _, r := range recs {
			comp.add(r)
		}
	}
	feed()
	first := comp.Snapshot().DOT()
	comp.Reset()
	if sg := comp.Snapshot(); sg.NumParents() != 0 || sg.NumEdges() != 0 || comp.Cyclic() {
		t.Fatalf("reset left state behind: %d parents, %d edges, cyclic %v", sg.NumParents(), sg.NumEdges(), comp.Cyclic())
	}
	feed()
	if got := comp.Snapshot().DOT(); got != first {
		t.Fatalf("post-reset composition diverges:\n%s\n%s", got, first)
	}
}
