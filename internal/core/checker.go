package core

import (
	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Checker runs the batch entry points — Build, Check, StreamPrefix — over
// one system type. There is one SG engine, Incremental; the Checker pools
// one together with the result graph, the freeze scratch, the
// well-formedness state, the per-object value replay and the view scratch,
// so repeated calls over the same tname.Tree amortize to (near-)zero
// steady-state allocations.
//
// A Checker is not safe for concurrent use, and the *SG / *Result returned
// by its methods alias the pooled buffers: each return value is valid only
// until the next call on the same Checker. Callers that need results to
// outlive the next call should use the package-level free functions, which
// construct a throwaway Checker per call.
type Checker struct {
	tr *tname.Tree

	inc   *Incremental
	sg    SG
	fz    freezeScratch
	wf    *simple.WellFormed
	objs  []objReplay
	views viewScratch
}

// objReplay is one object's running state while the Checker replays the
// visible operations; started is false until the first operation.
type objReplay struct {
	st      spec.State
	started bool
}

// NewChecker returns a Checker for the given system type. The pooled
// engine grows with the tree and is retained across calls.
func NewChecker(tr *tname.Tree) *Checker {
	return &Checker{tr: tr, inc: NewIncremental(tr), wf: simple.NewWellFormed(tr)}
}

// stream returns the pooled engine, rewound to the empty prefix.
func (c *Checker) stream() *Incremental {
	c.inc.Reset()
	return c.inc
}

// Build constructs SG(β) exactly as the package-level Build, reusing the
// checker's pooled engine. The result is valid until the next call on this
// Checker.
//
//sgvet:hotpath
func (c *Checker) Build(b event.Behavior) *SG {
	inc := c.stream()
	for _, e := range b {
		inc.Append(e)
	}
	return inc.freezeInto(&c.sg, &c.fz)
}

// Check verifies the hypotheses of Theorem 8/19 exactly as the
// package-level Check, reusing the checker's pooled scratch. The result is
// valid until the next call on this Checker.
//
// It reads β once: each serial action is checked against the simple-system
// axioms and then appended to the engine. The visible operations the
// frozen engine holds are operations(visible(β, T0)) in β order, so
// replaying them per object decides appropriate return values without
// recomputing visibility; only a failing behavior goes back to
// simple.AppropriateReturnValues, the definition, for its report.
func (c *Checker) Check(b event.Behavior) *Result {
	res, _ := c.CheckAgainst(b, nil)
	return res
}

// CheckAgainst is Check that also audits an online engine fed the same
// behavior, INFORMs and all. match reports that online holds the records
// the batch construction accumulated: the same parent graphs in the same
// discovery order, each with the same children and the same edge records.
// The canonical freeze is a function of those records alone, so a match
// implies online.Snapshot().Equal(res.SG), and with it equal DOT text
// (THEORY.md §4), without materializing the online graph. match is false
// when online is nil or β is not a simple behavior. online is only read.
func (c *Checker) CheckAgainst(b event.Behavior, online *Incremental) (res *Result, match bool) {
	if err := c.construct(b); err != nil {
		return &Result{WFErr: err}, false
	}
	match = online != nil && c.inc.sameRecords(online)
	return c.certify(b, c.inc.freezeInto(&c.sg, &c.fz)), match
}

// certify decides the hypotheses that follow well-formedness on the frozen
// SG(β): appropriate return values, acyclicity and the views.
func (c *Checker) certify(b event.Behavior, sg *SG) *Result {
	res := &Result{SG: sg}
	if !c.valuesAppropriate(sg) {
		// visible(β, T0) skips the actions that are not serial, so the
		// definition reads b as it would read serial(β).
		res.ValueViolations = simple.AppropriateReturnValues(c.tr, b)
		if len(res.ValueViolations) == 0 {
			panic("core: visible operations disagree with visible(β, T0)")
		}
		return res
	}
	order, cycle := sg.Acyclicity()
	if cycle != nil {
		res.Cycle = cycle
		return res
	}
	views, err := c.views.compute(c.tr, sg, order)
	if err != nil {
		res.ViewErr = err
		return res
	}
	res.OK = true
	res.Certificate = &Certificate{Order: order, Views: views}
	return res
}

// construct is Check's one pass over β: it steps the well-formedness
// checker through the serial actions, numbering them as serial(β) does,
// and appends each to the pooled engine, which it leaves unfrozen. It
// returns the first violation of the axioms, if any.
//
//sgvet:hotpath
func (c *Checker) construct(b event.Behavior) error {
	inc := c.stream()
	c.wf.Reset()
	n := 0
	for _, e := range b {
		if !e.Kind.IsSerial() {
			continue
		}
		if err := c.wf.Step(n, e); err != nil {
			return err
		}
		inc.Append(e)
		n++
	}
	return nil
}

// valuesAppropriate replays each object's visible operations through its
// serial specification and reports whether every recorded value is the
// one the specification returns: that is, whether
// simple.AppropriateReturnValues finds no violation.
//
//sgvet:hotpath
func (c *Checker) valuesAppropriate(sg *SG) bool {
	objs := c.objs[:0]
	for range c.tr.NumObjects() {
		objs = append(objs, objReplay{})
	}
	c.objs = objs
	for _, op := range sg.VisibleOps {
		sp := c.tr.Spec(op.Obj)
		o := &objs[op.Obj]
		if !o.started {
			o.st, o.started = sp.Init(), true
		}
		var want spec.Value
		o.st, want = sp.Apply(o.st, op.OV.Op)
		if want != op.OV.Val {
			return false
		}
	}
	return true
}

// StreamPrefix replays b through the checker's pooled engine and returns
// the raw index of the first event whose prefix has a cyclic SG, with the
// cycle certificate, or (-1, nil) when every prefix passes. See the
// package-level StreamPrefix.
func (c *Checker) StreamPrefix(b event.Behavior) (int, *Cycle) {
	inc := c.stream()
	for _, e := range b {
		if cyc := inc.Append(e); cyc != nil {
			_, at := inc.Rejected()
			return at, cyc
		}
	}
	return -1, nil
}
