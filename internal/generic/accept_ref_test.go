package generic

import (
	"fmt"

	"nestedsg/internal/event"
	"nestedsg/internal/object"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

// RefAcceptor is the Acceptor as it stood before the generic controller's
// bookkeeping moved into Controller, kept verbatim but for its name so that
// TestAcceptorMatchesReference can drive the two in lockstep. It keeps each
// transaction's completion in a done array of its own, beside the one
// simple.WellFormed keeps.
//
// Acceptor decides, one event at a time, whether a behavior is a behavior
// of the generic system of §5.1: the generic controller composed with one
// generic object per object name. Each step checks the event against the
// guard of the rule that produces it, then performs it:
//
//   - a serial action must keep the behavior simple-database well-formed
//     (simple.WellFormed), the controller's rules for the seven serial
//     kinds;
//   - INFORM_COMMIT_AT(X)OF(T) needs COMMIT(T) earlier in the behavior, and
//     INFORM_ABORT_AT(X)OF(T) needs ABORT(T) earlier; both are inputs of
//     X's automaton;
//   - CREATE(T) of an access T to X is an input of X's automaton;
//   - an access's REQUEST_COMMIT(T, v) must be an enabled output of X's
//     automaton, given its inputs so far, and return v.
//
// The automata are the caller's and are driven in place, so after an
// accepted prefix they hold the state that prefix leaves. Recovery runs
// its one pass over the durable log through an Acceptor.
type RefAcceptor struct {
	tr   *tname.Tree
	objs []object.Generic
	wf   *simple.WellFormed
	// done is each transaction's completion, Commit or Abort, once it
	// has one.
	done []event.Kind
}

// NewRefAcceptor returns an acceptor at the empty prefix that drives objs,
// the automaton of object x at objs[x].
func NewRefAcceptor(tr *tname.Tree, objs []object.Generic) *RefAcceptor {
	return &RefAcceptor{tr: tr, objs: objs, wf: simple.NewWellFormed(tr), done: make([]event.Kind, tr.NumTx())}
}

// Completion reports t's completion, event.Commit or event.Abort, in the
// prefix stepped so far, or event.KindInvalid if it has none.
func (a *RefAcceptor) Completion(t tname.TxID) event.Kind {
	if int(t) >= len(a.done) {
		return event.KindInvalid
	}
	return a.done[t]
}

// Step consumes e, the event at index i, and returns an error naming the
// event and the rule it breaks if e is not an enabled action after the
// events stepped so far; a *simple.WFError for a serial action the
// well-formedness axioms refuse. After an error the acceptor's state, and
// its automata's, are unspecified.
func (a *RefAcceptor) Step(i int, e event.Event) error {
	if err := a.wf.Step(i, e); err != nil {
		return err
	}
	tr := a.tr
	switch e.Kind {
	case event.Create:
		if tr.IsAccess(e.Tx) {
			a.objs[tr.AccessObject(e.Tx)].Create(e.Tx)
		}
	case event.RequestCommit:
		if !tr.IsAccess(e.Tx) {
			return nil
		}
		v, ok := a.objs[tr.AccessObject(e.Tx)].TryRequestCommit(e.Tx)
		if !ok {
			return fmt.Errorf("event %d: access %s not grantable at its logged position", i, tr.Name(e.Tx))
		}
		if v != e.Val {
			return fmt.Errorf("event %d: access %s replays to %s, log says %s", i, tr.Name(e.Tx), v, e.Val)
		}
	case event.Commit, event.Abort:
		for int(e.Tx) >= len(a.done) {
			a.done = append(a.done, event.KindInvalid)
		}
		a.done[e.Tx] = e.Kind
	case event.InformCommit, event.InformAbort:
		if e.Tx < 0 || int(e.Tx) >= tr.NumTx() || e.Obj < 0 || int(e.Obj) >= len(a.objs) {
			return fmt.Errorf("event %d: %s names an unknown transaction or object", i, e.Kind)
		}
		need := event.Commit
		if e.Kind == event.InformAbort {
			need = event.Abort
		}
		if a.Completion(e.Tx) != need {
			return fmt.Errorf("event %d: %s breaks rule %s: no earlier %s(%s)",
				i, e.Format(tr), e.Kind, need, tr.Name(e.Tx))
		}
		if e.Kind == event.InformCommit {
			a.objs[e.Obj].InformCommit(e.Tx)
		} else {
			a.objs[e.Obj].InformAbort(e.Tx)
		}
	default:
		// REQUEST_CREATE and the reports are the controller's outputs;
		// well-formedness is their whole guard.
	}
	return nil
}
