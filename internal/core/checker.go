package core

import (
	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

// Checker runs the batch entry points — Build, Check, StreamPrefix — over
// one system type. There is one SG engine, Incremental; the Checker pools
// one together with the result graph, the freeze scratch and the serial
// projection buffer, so repeated calls over the same tname.Tree amortize to
// (near-)zero steady-state allocations.
//
// A Checker is not safe for concurrent use, and the *SG / *Result returned
// by its methods alias the pooled buffers: each return value is valid only
// until the next call on the same Checker. Callers that need results to
// outlive the next call should use the package-level free functions, which
// construct a throwaway Checker per call.
type Checker struct {
	tr *tname.Tree

	inc       *Incremental
	sg        SG
	fz        freezeScratch
	serialBuf event.Behavior
}

// NewChecker returns a Checker for the given system type. The pooled
// engine grows with the tree and is retained across calls.
func NewChecker(tr *tname.Tree) *Checker {
	return &Checker{tr: tr, inc: NewIncremental(tr)}
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

// serialInto refills the pooled projection buffer with b's serial actions.
//
//sgvet:hotpath
func (c *Checker) serialInto(b event.Behavior) event.Behavior {
	c.serialBuf = c.serialBuf[:0]
	for _, e := range b {
		if e.Kind.IsSerial() {
			c.serialBuf = append(c.serialBuf, e)
		}
	}
	return c.serialBuf
}

// Check verifies the hypotheses of Theorem 8/19 exactly as the
// package-level Check, reusing the checker's pooled scratch. The result is
// valid until the next call on this Checker.
func (c *Checker) Check(b event.Behavior) *Result {
	res := &Result{}
	serial := c.serialInto(b)
	if err := simple.CheckWellFormed(c.tr, serial); err != nil {
		res.WFErr = err
		return res
	}
	res.SG = c.Build(serial)
	res.ValueViolations = simple.AppropriateReturnValues(c.tr, serial)
	if len(res.ValueViolations) > 0 {
		return res
	}
	order, cycle := res.SG.Acyclicity()
	if cycle != nil {
		res.Cycle = cycle
		return res
	}
	views, err := ComputeViews(c.tr, res.SG, order)
	if err != nil {
		res.ViewErr = err
		return res
	}
	res.OK = true
	res.Certificate = &Certificate{Order: order, Views: views}
	return res
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
