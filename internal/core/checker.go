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

	// buf receives the events of a source that does not hold Events
	// (event.Source.Run); it is allocated at the first such source.
	buf []event.Event
	// counts is what presize found the behavior to hold.
	counts batchCounts
}

// runLen is the length of Checker.buf: a run of 128 events, 6 KiB, stays
// in the cache between the source's decode and the engine's reads.
const runLen = 128

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

// readRun returns the events of src from index i on (event.Source.Run),
// decoded into the checker's buffer when src needs one. The batch passes
// are generic in the source, so a Behavior is read without boxing and
// each run, not each event, costs one call through the source.
func readRun[S event.Source](c *Checker, src S, i int) []event.Event {
	if r := src.Run(i, c.buf); len(r) > 0 {
		return r
	}
	c.buf = make([]event.Event, runLen)
	return src.Run(i, c.buf)
}

// presize reserves, in one step each, the engine's arrays that accumulate
// over the behavior — the returned values, the per-object logs, the
// report list and the edge records — so that the construction seldom
// regrows them. An online engine fed the same behavior has counted all of
// them already, exactly (Incremental.count): taking its counts rather
// than decoding the log a second time makes Final about 8 % and young's
// set-up 4 % faster (EXPERIMENTS.md E48). Counts from an engine fed
// another behavior are only wrong sizes: the arrays regrow, and the
// records then differ. Without an engine, a counting pass reads src once:
// the accesses that requested commit on each object, and of them those
// that are not read-only, bound the logs and the values, the reports
// bound the report list, and the edge records, which no count bounds, are
// estimated at one per request and per access.
//
//sgvet:hotpath
func presize[S event.Source](c *Checker, src S, online *Incremental) {
	k := &c.counts
	*k = batchCounts{perObj: sized(k.perObj, c.tr.NumObjects())}
	if online != nil {
		online.count(k)
	} else {
		countPass(c, src, k)
	}
	c.inc.reserve(k)
}

// countPass is presize's counting pass over src.
//
//sgvet:hotpath
func countPass[S event.Source](c *Checker, src S, k *batchCounts) {
	tr := c.tr
	nt := tr.NumTx()
	requests := 0
	for i, n := 0, src.Len(); i < n; {
		run := readRun(c, src, i)
		for _, e := range run {
			switch e.Kind {
			case event.RequestCommit:
				if e.Tx >= 0 && int(e.Tx) < nt && tr.IsAccess(e.Tx) {
					x := tr.AccessObject(e.Tx)
					k.perObj[x].all++
					k.accesses++
					if !tr.Spec(x).ReadOnly(tr.AccessOp(e.Tx)) {
						k.perObj[x].upd++
						k.upd++
					}
				}
			case event.ReportCommit, event.ReportAbort:
				k.reports++
			case event.RequestCreate:
				requests++
			case event.Create, event.Commit, event.Abort, event.InformCommit, event.InformAbort, event.KindInvalid:
			}
		}
		i += len(run)
	}
	k.edges = requests + k.accesses
}

// Build constructs SG(β) exactly as the package-level Build, reusing the
// checker's pooled engine. The result is valid until the next call on this
// Checker.
//
//sgvet:hotpath
func (c *Checker) Build(b event.Behavior) *SG {
	inc := c.stream()
	presize(c, b, nil)
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
	res, _ := checkAgainst(c, b, nil)
	return res
}

// CheckAgainst is Check over a source of β, such as a server's event log
// read in place, that also audits an online engine fed the same behavior,
// INFORMs and all. match reports that online holds the records the batch
// construction accumulated: the same parent graphs in the same discovery
// order, each with the same children and the same edge records. The
// canonical freeze is a function of those records alone, so a match
// implies online.Snapshot().Equal(res.SG), and with it equal DOT text
// (THEORY.md §4), without materializing the online graph. match is false
// when online is nil or β is not a simple behavior. online is only read,
// and src is materialized as a Behavior only to report inappropriate
// return values.
func (c *Checker) CheckAgainst(src event.Source, online *Incremental) (res *Result, match bool) {
	return checkAgainst(c, src, online)
}

// checkAgainst is CheckAgainst over any source type.
func checkAgainst[S event.Source](c *Checker, src S, online *Incremental) (res *Result, match bool) {
	if err := construct(c, src, online); err != nil {
		return &Result{WFErr: err}, false
	}
	match = online != nil && c.inc.sameRecords(online)
	return certify(c, src, c.inc.freezeInto(&c.sg, &c.fz)), match
}

// certify decides the hypotheses that follow well-formedness on the frozen
// SG(β): appropriate return values, acyclicity and the views.
func certify[S event.Source](c *Checker, src S, sg *SG) *Result {
	res := &Result{SG: sg}
	if !c.valuesAppropriate(sg) {
		// visible(β, T0) skips the actions that are not serial, so the
		// definition reads β as it would read serial(β).
		res.ValueViolations = simple.AppropriateReturnValues(c.tr, event.Collect(src))
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

// construct is Check's pass over β, after the counting pass (presize): it
// steps the well-formedness checker through the serial actions, numbering
// them as serial(β) does, and appends each to the pooled engine, which it
// leaves unfrozen. It returns the first violation of the axioms, if any.
//
//sgvet:hotpath
func construct[S event.Source](c *Checker, src S, online *Incremental) error {
	inc := c.stream()
	presize(c, src, online)
	c.wf.Reset()
	k := 0
	for i, n := 0, src.Len(); i < n; {
		run := readRun(c, src, i)
		for _, e := range run {
			if !e.Kind.IsSerial() {
				continue
			}
			if err := c.wf.Step(k, e); err != nil {
				return err
			}
			inc.Append(e)
			k++
		}
		i += len(run)
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
