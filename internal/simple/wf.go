package simple

import (
	"fmt"
	"slices"

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

// txWFState tracks the lifecycle facts the axioms mention, in 16 bytes
// that hold no pointer: the facts are bits, and the value REQUEST_COMMIT
// carried is kept as spec.Pack splits it, its string, if any, in the
// checker's side table.
type txWFState struct {
	x            int64 // the value's integer or string index, once CommitRequested
	openChildren int32 // children whose creation was requested but not yet reported
	facts        Facts
	vk           spec.ValueKind // the value's kind, once CommitRequested
}

// Facts is a set of lifecycle facts of one transaction: the serial actions
// about it that a prefix holds.
type Facts uint8

// The facts, one for each serial action about the transaction.
const (
	Requested Facts = 1 << iota
	Created
	CommitRequested
	Committed
	Aborted
	Reported
)

// Has reports whether every fact of g holds.
func (f Facts) Has(g Facts) bool { return f&g == g }

// WellFormed checks the axioms of CheckWellFormed one event at a time, so a
// caller that walks a behavior for another reason can decide
// well-formedness in the same pass. Its state is dense, one txWFState per
// transaction name, and Reset rewinds it to the empty prefix while keeping
// the backing array.
type WellFormed struct {
	tr   *tname.Tree
	st   []txWFState
	strs []string
}

// NewWellFormed returns a checker positioned at the empty prefix.
func NewWellFormed(tr *tname.Tree) *WellFormed {
	return &WellFormed{tr: tr, st: make([]txWFState, tr.NumTx())}
}

// Reset rewinds the checker to the empty prefix.
func (w *WellFormed) Reset() {
	clear(w.st)
	clear(w.strs)
	w.strs = w.strs[:0]
	w.grow()
}

// Reserve makes room for n transaction names.
func (w *WellFormed) Reserve(n int) { w.st = slices.Grow(w.st, max(0, n-len(w.st))) }

// grow sizes the state to the tree, which may gain names between steps.
func (w *WellFormed) grow() {
	for len(w.st) < w.tr.NumTx() {
		w.st = append(w.st, txWFState{})
	}
}

// Facts returns t's facts in the prefix stepped so far.
func (w *WellFormed) Facts(t tname.TxID) Facts {
	if t < 0 || int(t) >= len(w.st) {
		return 0
	}
	return w.st[t].facts
}

// Value returns the value t's REQUEST_COMMIT carried, once it has one.
func (w *WellFormed) Value(t tname.TxID) spec.Value {
	return spec.Unpack(w.st[t].vk, w.st[t].x, w.strs)
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
		if e.Tx != tname.Root && !s.facts.Has(Requested) {
			return wfFail(i, e, "CREATE without prior REQUEST_CREATE")
		}
		if s.facts.Has(Created) {
			return wfFail(i, e, "second CREATE")
		}
		if s.facts.Has(Aborted) || s.facts.Has(Committed) {
			return wfFail(i, e, "CREATE after completion")
		}
		s.facts |= Created

	case event.RequestCreate:
		if e.Tx == tname.Root {
			return wfFail(i, e, "REQUEST_CREATE of T0")
		}
		if s.facts.Has(Requested) {
			return wfFail(i, e, "second REQUEST_CREATE")
		}
		p := &w.st[w.tr.Parent(e.Tx)]
		if !p.facts.Has(Created) {
			return wfFail(i, e, "parent not created")
		}
		if p.facts.Has(CommitRequested) {
			return wfFail(i, e, "parent already requested commit")
		}
		s.facts |= Requested
		p.openChildren++

	case event.RequestCommit:
		if !s.facts.Has(Created) {
			return wfFail(i, e, "REQUEST_COMMIT without CREATE")
		}
		if s.facts.Has(CommitRequested) {
			return wfFail(i, e, "second REQUEST_COMMIT")
		}
		if !w.tr.IsAccess(e.Tx) && e.Tx != tname.Root && s.openChildren > 0 {
			return wfFail(i, e, "REQUEST_COMMIT with %d unreported children", s.openChildren)
		}
		s.facts |= CommitRequested
		s.vk, s.x, w.strs = spec.Pack(e.Val, w.strs)

	case event.Commit:
		if e.Tx == tname.Root {
			return wfFail(i, e, "COMMIT of T0")
		}
		if !s.facts.Has(CommitRequested) {
			return wfFail(i, e, "COMMIT without REQUEST_COMMIT")
		}
		if s.facts.Has(Committed) || s.facts.Has(Aborted) {
			return wfFail(i, e, "second completion event")
		}
		s.facts |= Committed

	case event.Abort:
		if e.Tx == tname.Root {
			return wfFail(i, e, "ABORT of T0")
		}
		if !s.facts.Has(Requested) {
			return wfFail(i, e, "ABORT without REQUEST_CREATE")
		}
		if s.facts.Has(Committed) || s.facts.Has(Aborted) {
			return wfFail(i, e, "second completion event")
		}
		s.facts |= Aborted

	case event.ReportCommit:
		// A committed transaction requested commit, so its value is set.
		if !s.facts.Has(Committed) {
			return wfFail(i, e, "REPORT_COMMIT without COMMIT")
		}
		if s.facts.Has(Reported) {
			return wfFail(i, e, "second report")
		}
		if v := w.Value(e.Tx); v != e.Val {
			return wfFail(i, e, "REPORT_COMMIT value %s does not match requested %s", e.Val, v)
		}
		s.facts |= Reported
		w.st[w.tr.Parent(e.Tx)].openChildren--

	case event.ReportAbort:
		if !s.facts.Has(Aborted) {
			return wfFail(i, e, "REPORT_ABORT without ABORT")
		}
		if s.facts.Has(Reported) {
			return wfFail(i, e, "second report")
		}
		s.facts |= Reported
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
