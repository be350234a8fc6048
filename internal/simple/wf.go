package simple

import (
	"fmt"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// WFError reports the first violation of the simple-database axioms found
// in a behavior, with the index of the offending event.
type WFError struct {
	Index int
	Event event.Event
	Msg   string
}

func (e *WFError) Error() string {
	return fmt.Sprintf("well-formedness violated at event %d (%v %d): %s", e.Index, e.Event.Kind, e.Event.Tx, e.Msg)
}

// txWFState tracks the lifecycle facts the axioms mention.
type txWFState struct {
	requested       bool
	created         bool
	commitRequested bool
	committed       bool
	aborted         bool
	reported        bool
	openChildren    int        // children whose creation was requested but not yet reported
	val             spec.Value // the value REQUEST_COMMIT carried, once commitRequested
}

// WellFormed checks the axioms of CheckWellFormed one event at a time, so a
// caller that walks a behavior for another reason can decide
// well-formedness in the same pass. Its state is dense, one txWFState per
// transaction name, and Reset rewinds it to the empty prefix while keeping
// the backing array.
type WellFormed struct {
	tr *tname.Tree
	st []txWFState
}

// NewWellFormed returns a checker positioned at the empty prefix.
func NewWellFormed(tr *tname.Tree) *WellFormed {
	return &WellFormed{tr: tr, st: make([]txWFState, tr.NumTx())}
}

// Reset rewinds the checker to the empty prefix.
func (w *WellFormed) Reset() {
	clear(w.st)
	w.grow()
}

// grow sizes the state to the tree, which may gain names between steps.
func (w *WellFormed) grow() {
	for len(w.st) < w.tr.NumTx() {
		w.st = append(w.st, txWFState{})
	}
}

// Step consumes the next event e, at index i of the behavior, and returns
// a *WFError if e violates the axioms after the events stepped so far, or
// nil. Events that are not serial actions are ignored. After a violation
// the state is unspecified until Reset.
func (w *WellFormed) Step(i int, e event.Event) error {
	if !e.Kind.IsSerial() {
		return nil
	}
	if e.Tx < 0 || int(e.Tx) >= len(w.st) {
		if w.grow(); e.Tx < 0 || int(e.Tx) >= len(w.st) {
			return wfFail(i, e, "names unknown transaction")
		}
	}
	s := &w.st[e.Tx]
	switch e.Kind {
	case event.Create:
		if e.Tx != tname.Root && !s.requested {
			return wfFail(i, e, "CREATE without prior REQUEST_CREATE")
		}
		if s.created {
			return wfFail(i, e, "second CREATE")
		}
		if s.aborted || s.committed {
			return wfFail(i, e, "CREATE after completion")
		}
		s.created = true

	case event.RequestCreate:
		if e.Tx == tname.Root {
			return wfFail(i, e, "REQUEST_CREATE of T0")
		}
		if s.requested {
			return wfFail(i, e, "second REQUEST_CREATE")
		}
		p := &w.st[w.tr.Parent(e.Tx)]
		if !p.created {
			return wfFail(i, e, "parent not created")
		}
		if p.commitRequested {
			return wfFail(i, e, "parent already requested commit")
		}
		s.requested = true
		p.openChildren++

	case event.RequestCommit:
		if !s.created {
			return wfFail(i, e, "REQUEST_COMMIT without CREATE")
		}
		if s.commitRequested {
			return wfFail(i, e, "second REQUEST_COMMIT")
		}
		if !w.tr.IsAccess(e.Tx) && e.Tx != tname.Root && s.openChildren > 0 {
			return wfFail(i, e, "REQUEST_COMMIT with %d unreported children", s.openChildren)
		}
		s.commitRequested = true
		s.val = e.Val

	case event.Commit:
		if e.Tx == tname.Root {
			return wfFail(i, e, "COMMIT of T0")
		}
		if !s.commitRequested {
			return wfFail(i, e, "COMMIT without REQUEST_COMMIT")
		}
		if s.committed || s.aborted {
			return wfFail(i, e, "second completion event")
		}
		s.committed = true

	case event.Abort:
		if e.Tx == tname.Root {
			return wfFail(i, e, "ABORT of T0")
		}
		if !s.requested {
			return wfFail(i, e, "ABORT without REQUEST_CREATE")
		}
		if s.committed || s.aborted {
			return wfFail(i, e, "second completion event")
		}
		s.aborted = true

	case event.ReportCommit:
		// A committed transaction requested commit, so s.val is set.
		if !s.committed {
			return wfFail(i, e, "REPORT_COMMIT without COMMIT")
		}
		if s.reported {
			return wfFail(i, e, "second report")
		}
		if s.val != e.Val {
			return wfFail(i, e, "REPORT_COMMIT value %s does not match requested %s", e.Val, s.val)
		}
		s.reported = true
		w.st[w.tr.Parent(e.Tx)].openChildren--

	case event.ReportAbort:
		if !s.aborted {
			return wfFail(i, e, "REPORT_ABORT without ABORT")
		}
		if s.reported {
			return wfFail(i, e, "second report")
		}
		s.reported = true
		w.st[w.tr.Parent(e.Tx)].openChildren--

	default:
		// Unreachable: the IsSerial filter above admits exactly the seven
		// kinds handled here. Fail loudly if the enumeration and the
		// filter ever drift apart.
		return wfFail(i, e, "unhandled serial kind %s", e.Kind)
	}
	return nil
}

func wfFail(i int, e event.Event, format string, args ...any) error {
	return &WFError{Index: i, Event: e, Msg: fmt.Sprintf(format, args...)}
}

// CheckWellFormed verifies that serial(β) satisfies the simple-database
// constraints of §2.3.1 together with transaction and serial-object
// well-formedness syntax:
//
//   - every serial action names a transaction of the system type;
//   - CREATE(T) (T ≠ T0) only after REQUEST_CREATE(T), and at most once;
//   - REQUEST_CREATE(T) only by a created, non-commit-requested parent, at
//     most once;
//   - REQUEST_COMMIT(T, v) only after CREATE(T), at most once, and for
//     non-access T only when every requested child has been reported;
//   - COMMIT(T) only after REQUEST_COMMIT(T, ·); ABORT(T) only after
//     REQUEST_CREATE(T); at most one completion event per transaction;
//   - REPORT_COMMIT(T, v) only after COMMIT(T) with v equal to the
//     requested value; REPORT_ABORT(T) only after ABORT(T); at most one
//     report per transaction.
//
// INFORM events are ignored here (they are generic-system actions checked
// by the generic runner). The error's Index is the event's position in b.
func CheckWellFormed(tr *tname.Tree, b event.Behavior) error {
	w := NewWellFormed(tr)
	for i, e := range b {
		if err := w.Step(i, e); err != nil {
			return err
		}
	}
	return nil
}
