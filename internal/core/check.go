package core

import (
	"errors"
	"fmt"
	"maps"
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

// Diff reports the first way r and o differ — their summary text, their
// graphs (SG.Equal), their sibling orders or their views — or nil when
// they agree on all four. Two routes to the verdict on one behavior, such
// as a check of a log read in place and one of the log copied out, must
// not differ.
func (r *Result) Diff(tr *tname.Tree, o *Result) error {
	if a, b := r.Summary(tr), o.Summary(tr); a != b {
		return fmt.Errorf("verdicts differ: %q, %q", a, b)
	}
	if (r.SG == nil) != (o.SG == nil) || r.SG != nil && !r.SG.Equal(o.SG) {
		return errors.New("graphs differ")
	}
	if (r.Certificate == nil) != (o.Certificate == nil) {
		return errors.New("one result has a certificate, the other none")
	}
	if r.Certificate == nil {
		return nil
	}
	if !maps.EqualFunc(r.Certificate.Order.ByParent, o.Certificate.Order.ByParent, slices.Equal) {
		return errors.New("sibling orders differ")
	}
	if !slices.EqualFunc(r.Certificate.Views, o.Certificate.Views, func(a, b View) bool {
		return a.Obj == b.Obj && slices.Equal(a.Ops, b.Ops)
	}) {
		return errors.New("views differ")
	}
	return nil
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

// viewScratch is the working memory of the view computation; a Checker
// pools one.
type viewScratch struct {
	// seen[x] is one more than x's position among the objects in order of
	// first visible operation, or 0; at[i] is where the view of the i-th
	// of them continues in the output.
	seen []int32
	objs []tname.ObjID
	at   []int32
	// names holds the walk's tree, per name, and opNext links the
	// visible operations of one access in β order.
	names  []viewName
	opNext []int32
	stack  []tname.TxID
	xi     []spec.OpVal
}

// viewName is one name's place in the tree the views walk: the names on a
// path from T0 to a visible operation. kids is its first child on such a
// path and next its next sibling in R (-1 for none), or next is offPath
// or unlisted; op is its first visible operation, -1 for none.
type viewName struct {
	kids, next tname.TxID
	op         int32
}

// States of viewName.next before the name is listed among its siblings.
const (
	offPath  tname.TxID = -3
	unlisted tname.TxID = -2
)

// compute orders the visible operations of each object by R_trans and
// verifies each resulting view is a behavior of the serial object; the
// error identifies the object and operation that failed. Views come out in
// the order of each object's first visible operation, and share one fresh
// backing array, so they outlive the scratch.
//
// R_trans orders two operations as R orders the children of their least
// common ancestor they descend from, so a depth-first walk of the names
// that lead to visible operations, each name's children taken in R,
// meets the operations in R_trans order: each is then placed at the next
// position of its object's view, and no two are compared. Under a name R
// puts the children it ranks first, in rank order — the lists of the
// order taken whole — and then the rest in name order.
func (vs *viewScratch) compute(tr *tname.Tree, sg *SG, order *SiblingOrder) ([]View, error) {
	ops := sg.VisibleOps
	nx, nt := tr.NumObjects(), tr.NumTx()
	seen := slices.Grow(vs.seen[:0], nx)[:nx]
	clear(seen)
	names := slices.Grow(vs.names[:0], nt)[:nt]
	for t := range names {
		names[t] = viewName{kids: -1, next: offPath, op: -1}
	}
	opNext := slices.Grow(vs.opNext[:0], len(ops))[:len(ops)]
	objs, at := vs.objs[:0], vs.at[:0]
	for j := len(ops) - 1; j >= 0; j-- {
		a := ops[j].Tx
		opNext[j], names[a].op = names[a].op, int32(j)
	}
	for _, op := range ops {
		if seen[op.Obj] == 0 {
			objs = append(objs, op.Obj)
			at = append(at, 0)
			seen[op.Obj] = int32(len(objs))
		}
		at[seen[op.Obj]-1]++
		for u := op.Tx; u != tname.Root && names[u].next == offPath; u = tr.Parent(u) {
			names[u].next = unlisted
		}
	}
	start := int32(0)
	for i, n := range at {
		at[i], start = start, start+n
	}

	// Each list is built from its end: first the unranked names in
	// descending name order, then in front of them the ranked ones, the
	// order's lists taken backwards.
	list := func(t tname.TxID) {
		p := tr.Parent(t)
		names[t].next, names[p].kids = names[p].kids, t
	}
	for t := tname.TxID(nt - 1); t >= 0; t-- {
		if names[t].next == unlisted && order.rankOf(t) == 0 {
			list(t)
		}
	}
	for i := len(order.flat) - 1; i >= 0; i-- {
		if t := order.flat[i]; int(t) < nt && names[t].next == unlisted {
			list(t)
		}
	}

	sorted := make([]event.AccessOp, len(ops))
	stack := append(vs.stack[:0], names[tname.Root].kids)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		if t < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		stack[len(stack)-1] = names[t].next
		for j := names[t].op; j >= 0; j = opNext[j] {
			i := seen[ops[j].Obj] - 1
			sorted[at[i]] = ops[j]
			at[i]++
		}
		stack = append(stack, names[t].kids)
	}
	vs.seen, vs.names, vs.opNext, vs.objs, vs.at, vs.stack = seen, names, opNext, objs, at, stack

	var out []View
	if len(objs) > 0 {
		out = make([]View, 0, len(objs))
	}
	lo := int32(0)
	for i, x := range objs {
		// at[i] has advanced to the end of the view.
		view := sorted[lo:at[i]:at[i]]
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
		lo = at[i]
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
