package generic

// The parent's undo-log automaton (internal/undolog), kept verbatim but for
// its names, as the reference the automata differential
// (TestAutomataMatchReference) holds the one with per-entry lowest
// uncommitted ancestors to. Its log accessors and Protocol wrappers are
// left out: the differential sets the broken flags itself.

import (
	"fmt"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// refEntry is one logged operation.
type refEntry struct {
	tx tname.TxID
	ov spec.OpVal
}

// refUndo is the undo logging generic object automaton U_X.
type refUndo struct {
	tr *tname.Tree
	x  tname.ObjID
	sp spec.Spec

	created         map[tname.TxID]bool
	commitRequested map[tname.TxID]bool
	committed       map[tname.TxID]bool
	operations      []refEntry

	// cache of the state reached by replaying operations; invalidated when
	// the log shrinks on INFORM_ABORT.
	cache      spec.State
	cacheValid bool

	// brokenNoUndo disables log erasure on abort (negative control).
	brokenNoUndo bool
	// brokenSkipCommute disables the commutativity gate (negative
	// control): any access whose value replays legally is admitted.
	brokenSkipCommute bool
}

// newRefUndo builds the faithful U_X automaton for object x.
func newRefUndo(tr *tname.Tree, x tname.ObjID) *refUndo {
	return &refUndo{
		tr:              tr,
		x:               x,
		sp:              tr.Spec(x),
		created:         make(map[tname.TxID]bool),
		commitRequested: make(map[tname.TxID]bool),
		committed:       make(map[tname.TxID]bool),
	}
}

// Create implements object.Generic.
func (u *refUndo) Create(t tname.TxID) { u.created[t] = true }

// InformCommit implements object.Generic.
func (u *refUndo) InformCommit(t tname.TxID) { u.committed[t] = true }

// InformAbort implements object.Generic.
func (u *refUndo) InformAbort(t tname.TxID) {
	if u.brokenNoUndo {
		// Negative control: recovery misreads the abort record as a group
		// commit — the aborted subtree's operations stay in the log and
		// every owner on the path is marked committed, so later accesses
		// unblock into the corrupted state.
		u.committed[t] = true
		for _, e := range u.operations {
			if !u.tr.IsDescendant(e.tx, t) {
				continue
			}
			for a := e.tx; a != t; a = u.tr.Parent(a) {
				u.committed[a] = true
			}
		}
		return
	}
	kept := u.operations[:0]
	removed := false
	for _, e := range u.operations {
		if u.tr.IsDescendant(e.tx, t) {
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	u.operations = kept
	if removed {
		u.cacheValid = false
	}
}

// state replays the log (cached).
func (u *refUndo) state() spec.State {
	if !u.cacheValid {
		st := u.sp.Init()
		for _, e := range u.operations {
			st, _ = u.sp.Apply(st, e.ov.Op)
		}
		u.cache, u.cacheValid = st, true
	}
	return u.cache
}

// uncommittedOutside reports whether some ancestor of t2 outside
// ancestors(t) is not in committed — i.e. whether the logged operation of
// t2 still belongs to a transaction whose fate t cannot rely on.
func (u *refUndo) uncommittedOutside(t2, t tname.TxID) bool {
	lca := u.tr.LCA(t2, t)
	for a := t2; a != lca; a = u.tr.Parent(a) {
		if !u.committed[a] {
			return true
		}
	}
	return false
}

// TryRequestCommit implements object.Generic.
func (u *refUndo) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !u.created[t] || u.commitRequested[t] {
		return spec.Nil, false
	}
	op := u.tr.AccessOp(t)
	st, v := u.sp.Apply(u.state(), op)
	ov := spec.OpVal{Op: op, Val: v}
	if !u.brokenSkipCommute {
		for _, e := range u.operations {
			if u.uncommittedOutside(e.tx, t) && u.sp.Conflicts(ov, e.ov) {
				return spec.Nil, false
			}
		}
	}
	u.operations = append(u.operations, refEntry{tx: t, ov: ov})
	u.cache, u.cacheValid = st, true
	u.commitRequested[t] = true
	return v, true
}

// Blockers implements object.Generic: each access's blockers in turn.
func (u *refUndo) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	for _, t := range ts {
		out = append(out, u.blockersOf(t)...)
	}
	return out
}

// blockersOf returns the blockers of access t.
func (u *refUndo) blockersOf(t tname.TxID) []tname.TxID {
	if !u.created[t] || u.commitRequested[t] || u.brokenSkipCommute {
		return nil
	}
	op := u.tr.AccessOp(t)
	_, v := u.sp.Apply(u.state(), op)
	ov := spec.OpVal{Op: op, Val: v}
	var out []tname.TxID
	for _, e := range u.operations {
		if u.uncommittedOutside(e.tx, t) && u.sp.Conflicts(ov, e.ov) {
			out = append(out, e.tx)
		}
	}
	return out
}

// Blocked is the bool query the lockstep compares object.Generic's Blocked
// against: equivalent to len(blockersOf(t)) > 0, but returns at the first
// non-commuting uncommitted refEntry without building the list.
func (u *refUndo) Blocked(t tname.TxID) bool {
	if !u.created[t] || u.commitRequested[t] || u.brokenSkipCommute {
		return false
	}
	op := u.tr.AccessOp(t)
	_, v := u.sp.Apply(u.state(), op)
	ov := spec.OpVal{Op: op, Val: v}
	for _, e := range u.operations {
		if u.uncommittedOutside(e.tx, t) && u.sp.Conflicts(ov, e.ov) {
			return true
		}
	}
	return false
}

// Audit implements object.Auditor: the cached state must match a fresh
// replay of the log, and perform(operations) must be a behavior of S_X
// (Lemma 21(2) with the empty removal set, a consequence of the
// commutativity gate). Broken variants are exempt.
func (u *refUndo) Audit() error {
	if u.brokenNoUndo || u.brokenSkipCommute {
		return nil
	}
	st := u.sp.Init()
	for i, e := range u.operations {
		var v spec.Value
		st, v = u.sp.Apply(st, e.ov.Op)
		if v != e.ov.Val {
			return fmt.Errorf("undolog: log refEntry %d (%s) is not legal under replay", i, e.ov)
		}
	}
	if u.cacheValid && u.sp.Encode(st) != u.sp.Encode(u.cache) {
		return fmt.Errorf("undolog: cached state diverged from log replay")
	}
	return nil
}
