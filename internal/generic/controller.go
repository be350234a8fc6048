package generic

import (
	"fmt"
	"slices"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

// Controller is the generic controller of §5.1 as one automaton. Each step
// checks an event against the guard of the controller's rule that makes
// it: a serial action must keep the behavior well-formed (simple.WellFormed,
// which also keeps the serial facts and the values), and
// INFORM_COMMIT_AT(X)OF(T) or INFORM_ABORT_AT(X)OF(T) needs COMMIT(T) or
// ABORT(T) earlier, at any object. It also keeps the completions in log
// order, and each transaction's objects: an access's CREATE adds its object
// to the access and every ancestor below T0, and an INFORM about a
// transaction marks (or adds) its object informed. No INFORM about a
// transaction is enabled before it completes, so until then its objects
// are exactly those its subtree touched. The Acceptor, recovery's stitch
// and the Runner's enumeration all read it.
type Controller struct {
	tr *tname.Tree
	wf *simple.WellFormed
	// head holds, per transaction, 1 + the index in objs of its latest
	// object entry, or 0 while it has none.
	head        []int32
	objs        []objEntry
	completions []tname.TxID
}

// objEntry is one object of a transaction: x, or ^x (negative) once an
// INFORM about the transaction has reached it, and 1 + the index of the
// transaction's entry before it, or 0.
type objEntry struct {
	x    tname.ObjID
	next int32
}

// NewController returns a controller at the empty prefix with room for n
// names, their completions and an object entry apiece; it grows with the
// tree past that.
func NewController(tr *tname.Tree, n int) *Controller {
	wf := simple.NewWellFormed(tr)
	wf.Reserve(n)
	return &Controller{tr: tr, wf: wf, head: make([]int32, 0, n),
		objs: make([]objEntry, 0, n), completions: make([]tname.TxID, 0, n)}
}

// Step consumes e, the event at index i. A refusal is an error naming e and
// the rule it breaks, a *simple.WFError for the well-formedness axioms,
// after which the state is unspecified.
func (c *Controller) Step(i int, e event.Event) error {
	if err := c.wf.Step(i, e); err != nil {
		return err
	}
	tr := c.tr
	switch e.Kind {
	case event.Create:
		if tr.IsAccess(e.Tx) {
			x := tr.AccessObject(e.Tx)
			for u := e.Tx; u != tname.Root; u = tr.Parent(u) {
				c.entry(u, x)
			}
		}
	case event.Commit, event.Abort:
		c.completions = append(c.completions, e.Tx)
	case event.InformCommit, event.InformAbort:
		if e.Tx < 0 || int(e.Tx) >= tr.NumTx() || e.Obj < 0 || int(e.Obj) >= tr.NumObjects() {
			return fmt.Errorf("event %d: %s names an unknown transaction or object", i, e.Kind)
		}
		need := event.Commit
		if e.Kind == event.InformAbort {
			need = event.Abort
		}
		if c.Completion(e.Tx) != need {
			return fmt.Errorf("event %d: %s breaks rule %s: no earlier %s(%s)",
				i, e.Format(tr), e.Kind, need, tr.Name(e.Tx))
		}
		if o := c.entry(e.Tx, e.Obj); o.x >= 0 {
			o.x = ^o.x
		}
	default:
		// Well-formedness is the whole guard of the other serial actions.
	}
	return nil
}

// entry returns t's entry for x, adding one if it has none.
func (c *Controller) entry(t tname.TxID, x tname.ObjID) *objEntry {
	if int(t) >= len(c.head) {
		c.head = append(c.head, make([]int32, int(t)+1-len(c.head))...)
	}
	for k := c.head[t]; k != 0; k = c.objs[k-1].next {
		if o := &c.objs[k-1]; o.x == x || o.x == ^x {
			return o
		}
	}
	c.objs = append(c.objs, objEntry{x: x, next: c.head[t]})
	c.head[t] = int32(len(c.objs))
	return &c.objs[len(c.objs)-1]
}

// Touched appends t's objects to dst in the order first seen: before t
// completes, those its subtree touched, the objects its completion informs.
func (c *Controller) Touched(dst []tname.ObjID, t tname.TxID) []tname.ObjID {
	return c.appendObjs(dst, t, false)
}

// Owed appends to dst, in the same order, t's objects no INFORM about t has
// reached: the INFORMs its completion still owes.
func (c *Controller) Owed(dst []tname.ObjID, t tname.TxID) []tname.ObjID {
	return c.appendObjs(dst, t, true)
}

func (c *Controller) appendObjs(dst []tname.ObjID, t tname.TxID, owed bool) []tname.ObjID {
	if t < 0 || int(t) >= len(c.head) {
		return dst
	}
	n := len(dst)
	for k := c.head[t]; k != 0; k = c.objs[k-1].next {
		if x := c.objs[k-1].x; x >= 0 || !owed {
			dst = append(dst, max(x, ^x)) // x, informed or not
		}
	}
	slices.Reverse(dst[n:])
	return dst
}

// Completions returns the completed transactions in log order (its own slice).
func (c *Controller) Completions() []tname.TxID { return c.completions }

// Facts returns t's serial facts.
func (c *Controller) Facts(t tname.TxID) simple.Facts { return c.wf.Facts(t) }

// Completion reports t's completion, event.Commit or event.Abort, or
// event.KindInvalid if it has none.
func (c *Controller) Completion(t tname.TxID) event.Kind {
	switch f := c.wf.Facts(t); {
	case f.Has(simple.Committed):
		return event.Commit
	case f.Has(simple.Aborted):
		return event.Abort
	}
	return event.KindInvalid
}

// Open reports whether t is created and has neither requested to commit
// nor aborted: it can still request children and take their reports.
func (c *Controller) Open(t tname.TxID) bool { return isOpen(c.wf.Facts(t)) }

func isOpen(f simple.Facts) bool {
	return f&(simple.Created|simple.CommitRequested|simple.Aborted) == simple.Created
}
