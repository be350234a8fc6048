package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// View is view(β, T0, R, X): the operations of X visible to T0, ordered by
// R_trans on their transaction components (§2.3.2).
type View struct {
	Obj tname.ObjID
	Ops []event.AccessOp
}

// Certificate is the positive outcome of the Theorem 8/19 check: evidence
// from which serial correctness for T0 follows, and from which an explicit
// serial witness behavior can be replayed (internal/serial).
type Certificate struct {
	// Order is the suitable sibling order R, realized as a topological sort
	// of each SG(β, T).
	Order *SiblingOrder
	// Views holds view(β, T0, R, X) for every object with visible
	// operations; each was verified to be a finite behavior of S_X.
	Views []View
}

// Result is the full outcome of checking a behavior against Theorem 8/19.
// Exactly one of the failure fields is non-nil when OK is false.
type Result struct {
	// OK reports that the behavior satisfied every hypothesis, hence is
	// serially correct for T0.
	OK bool

	// WFErr is set when the behavior violates the simple-system axioms —
	// the trace is not a simple behavior and the theorem does not speak
	// about it.
	WFErr error
	// ValueViolations is set when the behavior does not have appropriate
	// return values (§3.2 / §6.1).
	ValueViolations []simple.ValueViolation
	// Cycle is set when SG(β) has a cycle.
	Cycle *Cycle
	// ViewErr is set if a view failed to replay as a behavior of its serial
	// object. Under Proposition 7/18 this cannot happen once return values
	// are appropriate and SG(β) is acyclic; a non-nil ViewErr therefore
	// indicates a bug in a Spec's Conflicts table (a non-conservative
	// entry), and the checker reports it rather than trusting the table.
	ViewErr error

	// Certificate is set when OK.
	Certificate *Certificate
	// SG is the constructed graph (always set unless WFErr).
	SG *SG
}

// Summary renders a one-line outcome.
func (r *Result) Summary(tr *tname.Tree) string {
	switch {
	case r.OK:
		return fmt.Sprintf("serially correct for T0 (SG edges: %d)", r.SG.NumEdges())
	case r.WFErr != nil:
		return "not a simple behavior: " + r.WFErr.Error()
	case len(r.ValueViolations) > 0:
		v := r.ValueViolations[0]
		return "inappropriate return values: " + v.Error(tr)
	case r.Cycle != nil:
		return r.Cycle.Format(tr)
	case r.ViewErr != nil:
		return "view replay failed: " + r.ViewErr.Error()
	}
	return "unknown failure"
}

// Check verifies the hypotheses of Theorem 8 (read/write objects) and
// Theorem 19 (arbitrary types) on the serial actions of b:
//
//  1. b's serial projection satisfies the simple-system axioms;
//  2. b has appropriate return values;
//  3. SG(β) is acyclic;
//  4. (verification of the conclusion's mechanism) each view(β, T0, R, X)
//     replays as a finite behavior of S_X.
//
// When all hold, the behavior is serially correct for T0 and the
// certificate allows a serial witness to be constructed.
//
// Check is a one-shot wrapper: repeated checks over one system type should
// share a Checker, whose Check method pools all working memory.
func Check(tr *tname.Tree, b event.Behavior) *Result {
	return NewChecker(tr).Check(b)
}

// ComputeViews orders the visible operations of each object by R_trans and
// verifies each resulting view is a behavior of the serial object. The
// error identifies the object and operation that failed.
func ComputeViews(tr *tname.Tree, sg *SG, order *SiblingOrder) ([]View, error) {
	var vs viewScratch
	return vs.compute(tr, sg, order)
}

// viewScratch is the working memory of ComputeViews; a Checker pools one.
type viewScratch struct {
	keys opKeys
	// seen[x] is one more than x's position among the objects in order of
	// first visible operation, or 0.
	seen []int32
	objs []tname.ObjID
	idx  []int32
	xi   []spec.OpVal
}

// compute is ComputeViews over the scratch. Views come out in the order
// of each object's first visible operation, and share one fresh backing
// array, so they outlive the scratch.
func (vs *viewScratch) compute(tr *tname.Tree, sg *SG, order *SiblingOrder) ([]View, error) {
	ops := sg.VisibleOps
	vs.keys.fill(order, ops)
	n := tr.NumObjects()
	seen := slices.Grow(vs.seen[:0], n)[:n]
	clear(seen)
	objs, idx := vs.objs[:0], vs.idx[:0]
	for j, op := range ops {
		if seen[op.Obj] == 0 {
			objs = append(objs, op.Obj)
			seen[op.Obj] = int32(len(objs))
		}
		idx = append(idx, int32(j))
	}
	vs.seen, vs.objs, vs.idx = seen, objs, idx
	// Sort by object, then by R_trans within each object.
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(seen[ops[a].Obj], seen[ops[b].Obj]); c != 0 {
			return c
		}
		return vs.keys.compare(a, b)
	})

	var out []View
	if len(objs) > 0 {
		out = make([]View, 0, len(objs))
	}
	sorted := make([]event.AccessOp, len(ops))
	for j, i := range idx {
		sorted[j] = ops[i]
	}
	for lo := 0; lo < len(sorted); {
		x := sorted[lo].Obj
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Obj == x {
			hi++
		}
		view := sorted[lo:hi:hi]
		xi := vs.xi[:0]
		for _, op := range view {
			xi = append(xi, op.OV)
		}
		vs.xi = xi
		if ok, i := spec.IsBehavior(tr.Spec(x), xi); !ok {
			return nil, fmt.Errorf("view(β,T0,R,%s): operation %d (%s by %s) is not legal in the reordered sequence",
				tr.ObjectLabel(x), i, xi[i], tr.Name(view[i].Tx))
		}
		out = append(out, View{Obj: x, Ops: view})
		lo = hi
	}
	return out, nil
}

// FormatCertificate renders the sibling order for human inspection.
func FormatCertificate(tr *tname.Tree, c *Certificate) string {
	var sb strings.Builder
	sb.WriteString("suitable sibling order R (topological sorts of SG(β,T)):\n")
	parents := make([]tname.TxID, 0, len(c.Order.ByParent))
	for p := range c.Order.ByParent {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	for _, p := range parents {
		fmt.Fprintf(&sb, "  %s: ", tr.Name(p))
		for i, k := range c.Order.ByParent[p] {
			if i > 0 {
				sb.WriteString(" < ")
			}
			sb.WriteString(tr.Label(k))
		}
		sb.WriteString("\n")
	}
	for _, v := range c.Views {
		fmt.Fprintf(&sb, "view at %s:", tr.ObjectLabel(v.Obj))
		for _, op := range v.Ops {
			fmt.Fprintf(&sb, " %s", op.OV)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
