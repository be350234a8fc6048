package generic

import (
	"fmt"

	"nestedsg/internal/event"
	"nestedsg/internal/object"
	"nestedsg/internal/tname"
)

// Acceptor decides, one event at a time, whether a behavior is a behavior
// of the generic system of §5.1: the generic controller composed with one
// generic object per object name. It is a Controller plus the object
// automata: CREATE(T) of an access T to X and the INFORMs at X are inputs
// of X's automaton, and an access's REQUEST_COMMIT(T, v) must be an
// enabled output of it, given its inputs so far, that returns v. The
// automata are the caller's, one per object of the tree, and are driven in
// place, so after an accepted prefix they hold the state that prefix
// leaves. Recovery runs its one pass over the durable log through an
// Acceptor.
type Acceptor struct {
	*Controller
	objs []object.Generic
}

// NewAcceptor returns an acceptor at the empty prefix that drives objs,
// the automaton of object x at objs[x].
func NewAcceptor(tr *tname.Tree, objs []object.Generic) *Acceptor {
	return &Acceptor{Controller: NewController(tr, tr.NumTx()), objs: objs}
}

// Step is Controller.Step followed by the object automata's rules: an
// error names e and the rule it breaks, and leaves the automata, too, in
// an unspecified state.
func (a *Acceptor) Step(i int, e event.Event) error {
	if err := a.Controller.Step(i, e); err != nil {
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
	case event.InformCommit:
		a.objs[e.Obj].InformCommit(e.Tx)
	case event.InformAbort:
		a.objs[e.Obj].InformAbort(e.Tx)
	default:
		// The controller's own outputs: its step was their whole guard.
	}
	return nil
}

// Accept steps an Acceptor over fresh automata of proto, one per object of
// tr, through the behavior src holds. It returns nil if src is a behavior
// of the generic system, and otherwise the error that names the first
// event refused and the rule that event breaks.
func Accept(tr *tname.Tree, src event.Source, proto object.Protocol) error {
	objs := make([]object.Generic, tr.NumObjects())
	for x := range objs {
		objs[x] = proto.New(tr, tname.ObjID(x))
	}
	a := NewAcceptor(tr, objs)
	for i, e := range event.Collect(src) {
		if err := a.Step(i, e); err != nil {
			return err
		}
	}
	return nil
}
