// Package undolog implements the undo logging object automaton U_X of §6.2
// — the generalization to nested transactions of Weihl's undo-logging
// algorithm — for objects of arbitrary data type.
//
// The automaton keeps the object state as a log of operations (T, v). A
// REQUEST_COMMIT(T, v) is enabled only when
//
//   - perform(operations · (T, v)) is a behavior of S_X (v is obtained by
//     replaying the log and applying the access's operation), and
//   - (T, v) commutes backward with every logged operation (T', v') that
//     has an uncommitted ancestor outside ancestors(T).
//
// INFORM_ABORT removes all operations of descendants of the aborted
// transaction from the log — the "undo". INFORM_COMMIT merely records the
// commit, enlarging the set of operations later accesses need not commute
// with.
//
// Each log entry keeps low, the lowest ancestor-or-self of its transaction
// not yet known committed at X (T0 if there is none below T0), and
// INFORM_COMMIT moves low up past the committed transaction. Some ancestor
// of the entry outside ancestors(T) is uncommitted exactly when low is not
// an ancestor of T, so the gate asks one ancestry question per entry, and
// none for an entry whose low has reached T0.
//
// A pending access's operation and the value it would return are a
// function of the replayed state, which changes only when the log gains or
// loses an entry. The automaton numbers those changes, and each pending
// access keeps its (op, value) with the version it was computed at, in its
// per-transaction record: Blocked and Blockers replay nothing while the log
// stands still. Blockers answers for all the waiters of the object at once,
// and stops at the first waiter each entry blocks.
package undolog

import (
	"fmt"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// entry is one logged operation.
type entry struct {
	tx tname.TxID
	ov spec.OpVal
	// low is the lowest ancestor-or-self of tx not known committed at X,
	// or T0: the entry blocks an access T only while low lies outside
	// ancestors(T).
	low tname.TxID
}

// Undo is the undo logging generic object automaton U_X.
type Undo struct {
	tr *tname.Tree
	x  tname.ObjID
	sp spec.Spec
	// valueFree caches spec.ValueFreeConflicts(sp): only then can Blocked
	// name a witness.
	valueFree bool

	// recs holds each transaction's record: its created, commit-requested
	// and committed bits, and a pending access's memo.
	recs       map[tname.TxID]txRec
	operations []entry
	// waiting is Blockers' scratch: the pending waiters it was asked
	// about, with their operations and values.
	waiting []waiter

	// cache of the state reached by replaying operations; invalidated when
	// the log shrinks on INFORM_ABORT.
	cache      spec.State
	cacheValid bool
	// version numbers the states the log has been in: it moves whenever
	// an entry is appended or removed, and only then.
	version uint64

	// brokenNoUndo disables log erasure on abort (negative control).
	brokenNoUndo bool
	// brokenSkipCommute disables the commutativity gate (negative
	// control): any access whose value replays legally is admitted.
	brokenSkipCommute bool
}

// txFlags are the automaton's per-transaction bits.
type txFlags uint8

const (
	created txFlags = 1 << iota
	commitRequested
	committed
)

// txRec is one transaction's record. For a pending access, ov is the
// operation it would be logged with and the value it would return, as of
// log version ver (0: never computed).
type txRec struct {
	flags txFlags
	ver   uint64
	ov    spec.OpVal
}

// waiter is a pending access and its (op, value).
type waiter struct {
	tx tname.TxID
	ov spec.OpVal
}

// New builds the faithful U_X automaton for object x.
func New(tr *tname.Tree, x tname.ObjID) *Undo {
	sp := tr.Spec(x)
	return &Undo{
		tr:        tr,
		x:         x,
		sp:        sp,
		valueFree: spec.ValueFreeConflicts(sp),
		recs:      make(map[tname.TxID]txRec),
		version:   1,
	}
}

// mark sets bits f in t's record.
func (u *Undo) mark(t tname.TxID, f txFlags) {
	r := u.recs[t]
	r.flags |= f
	u.recs[t] = r
}

// Create implements object.Generic.
func (u *Undo) Create(t tname.TxID) { u.mark(t, created) }

// pending reports whether t is created and has not requested to commit.
func (u *Undo) pending(t tname.TxID) bool {
	return u.recs[t].flags&(created|commitRequested) == created
}

// lowest returns the lowest ancestor-or-self of t not known committed, or
// T0 if every proper descendant of T0 on the path is.
func (u *Undo) lowest(t tname.TxID) tname.TxID {
	for t != tname.Root && u.recs[t].flags&committed != 0 {
		t = u.tr.Parent(t)
	}
	return t
}

// InformCommit implements object.Generic: the entries whose lowest
// uncommitted ancestor was t move their mark up past it.
func (u *Undo) InformCommit(t tname.TxID) {
	u.mark(t, committed)
	for i := range u.operations {
		if e := &u.operations[i]; e.low == t {
			e.low = u.lowest(t)
		}
	}
}

// InformAbort implements object.Generic.
func (u *Undo) InformAbort(t tname.TxID) {
	if u.brokenNoUndo {
		// Negative control: recovery misreads the abort record as a group
		// commit — the aborted subtree's operations stay in the log and
		// every owner on the path is marked committed, so later accesses
		// unblock into the corrupted state.
		u.mark(t, committed)
		for _, e := range u.operations {
			if !u.tr.IsDescendant(e.tx, t) {
				continue
			}
			for a := e.tx; a != t; a = u.tr.Parent(a) {
				u.mark(a, committed)
			}
		}
		for i := range u.operations {
			e := &u.operations[i]
			e.low = u.lowest(e.low)
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
	clear(u.operations[len(kept):])
	u.operations = kept
	if removed {
		u.cacheValid = false
		u.version++
	}
}

// state replays the log (cached).
func (u *Undo) state() spec.State {
	if !u.cacheValid {
		st := u.sp.Init()
		for _, e := range u.operations {
			st, _ = u.sp.Apply(st, e.ov.Op)
		}
		u.cache, u.cacheValid = st, true
	}
	return u.cache
}

// uncommittedOutside reports whether some ancestor of e's transaction
// outside ancestors(t) is not known committed — i.e. whether the logged
// operation still belongs to a transaction whose fate t cannot rely on.
// The lowest such ancestor is e.low, and it lies outside ancestors(t)
// exactly when some uncommitted one does.
func (u *Undo) uncommittedOutside(e *entry, t tname.TxID) bool {
	return e.low != tname.Root && !u.tr.IsAncestor(e.low, t)
}

// blocks reports whether logged entry e, not known committed outside
// ancestors(t), does not commute backward with (t, ov).
func (u *Undo) blocks(e *entry, t tname.TxID, ov spec.OpVal) bool {
	return u.uncommittedOutside(e, t) && u.sp.Conflicts(ov, e.ov)
}

// TryRequestCommit implements object.Generic.
func (u *Undo) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !u.pending(t) {
		return spec.Nil, false
	}
	op := u.tr.AccessOp(t)
	st, v := u.sp.Apply(u.state(), op)
	ov := spec.OpVal{Op: op, Val: v}
	if !u.brokenSkipCommute {
		for i := range u.operations {
			if u.blocks(&u.operations[i], t, ov) {
				return spec.Nil, false
			}
		}
	}
	u.operations = append(u.operations, entry{tx: t, ov: ov, low: u.lowest(t)})
	u.cache, u.cacheValid = st, true
	u.version++
	u.mark(t, commitRequested)
	return v, true
}

// pendingOpVal returns the operation and value pending access t would be
// logged with, and whether the gate applies to it at all. It looks t's
// record up once, and replays only when the log has changed since t's
// memo was made.
func (u *Undo) pendingOpVal(t tname.TxID) (spec.OpVal, bool) {
	if u.brokenSkipCommute {
		return spec.OpVal{}, false
	}
	r := u.recs[t]
	if r.flags&(created|commitRequested) != created {
		return spec.OpVal{}, false
	}
	if r.ver != u.version {
		op := u.tr.AccessOp(t)
		_, v := u.sp.Apply(u.state(), op)
		r.ver, r.ov = u.version, spec.OpVal{Op: op, Val: v}
		u.recs[t] = r
	}
	return r.ov, true
}

// Blockers implements object.Generic. Each entry not known committed is
// listed at the first waiter it blocks.
func (u *Undo) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	ws := u.waiting[:0]
	for _, t := range ts {
		if ov, ok := u.pendingOpVal(t); ok {
			ws = append(ws, waiter{tx: t, ov: ov})
		}
	}
	u.waiting = ws
	if len(ws) == 0 {
		return out
	}
	for i := range u.operations {
		e := &u.operations[i]
		if e.low == tname.Root {
			continue // committed up to T0: it blocks nobody
		}
		for _, w := range ws {
			if u.blocks(e, w.tx, w.ov) {
				out = append(out, e.tx)
				break
			}
		}
	}
	return out
}

// Blocked implements object.Generic: it returns at the first
// non-commuting uncommitted entry without building the list, and names
// that entry's transaction. Under the wake clause the entry keeps blocking
// until an INFORM about an ancestor-or-self of its transaction moves its
// low mark or removes it. Over a type whose Conflicts reads values, a
// grant or an abort can unblock the access by changing its value, so it
// names no witness there, and neither does a broken variant.
func (u *Undo) Blocked(t tname.TxID) (tname.TxID, bool) {
	ov, ok := u.pendingOpVal(t)
	if !ok {
		return tname.None, false
	}
	for i := range u.operations {
		if e := &u.operations[i]; u.blocks(e, t, ov) {
			if u.brokenNoUndo || !u.valueFree {
				return tname.None, true
			}
			return e.tx, true
		}
	}
	return tname.None, false
}

// Audit implements object.Auditor: the cached state must match a fresh
// replay of the log, and perform(operations) must be a behavior of S_X
// (Lemma 21(2) with the empty removal set, a consequence of the
// commutativity gate). Broken variants are exempt.
func (u *Undo) Audit() error {
	if u.brokenNoUndo || u.brokenSkipCommute {
		return nil
	}
	st := u.sp.Init()
	for i, e := range u.operations {
		var v spec.Value
		st, v = u.sp.Apply(st, e.ov.Op)
		if v != e.ov.Val {
			return fmt.Errorf("undolog: log entry %d (%s) is not legal under replay", i, e.ov)
		}
	}
	if u.cacheValid && u.sp.Encode(st) != u.sp.Encode(u.cache) {
		return fmt.Errorf("undolog: cached state diverged from log replay")
	}
	return nil
}

// Log returns a copy of the current operation log; used by tests to check
// Lemmas 20–21.
func (u *Undo) Log() []spec.OpVal {
	out := make([]spec.OpVal, len(u.operations))
	for i, e := range u.operations {
		out[i] = e.ov
	}
	return out
}

// LogTx returns the transactions of the logged operations, in log order.
func (u *Undo) LogTx() []tname.TxID {
	out := make([]tname.TxID, len(u.operations))
	for i, e := range u.operations {
		out[i] = e.tx
	}
	return out
}

// Protocol implements object.Protocol for the faithful undo-log automaton.
type Protocol struct{}

// Name implements object.Protocol.
func (Protocol) Name() string { return "undolog" }

// New implements object.Protocol.
func (Protocol) New(tr *tname.Tree, x tname.ObjID) object.Generic { return New(tr, x) }

// BrokenMode selects a deliberately incorrect variant for experiment E3.
type BrokenMode uint8

// Broken modes.
const (
	// NoUndo records aborts as commits: aborted transactions' effects
	// survive in the log and unblock (and corrupt) later accesses.
	NoUndo BrokenMode = iota
	// SkipCommute admits any access without the backward-commutativity
	// gate: concurrent non-commuting operations interleave freely.
	SkipCommute
)

// BrokenProtocol implements object.Protocol for broken variants.
type BrokenProtocol struct{ Mode BrokenMode }

// Name implements object.Protocol.
func (p BrokenProtocol) Name() string {
	if p.Mode == NoUndo {
		return "undolog-broken-noundo"
	}
	return "undolog-broken-commute"
}

// New implements object.Protocol.
func (p BrokenProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	u := New(tr, x)
	switch p.Mode {
	case NoUndo:
		u.brokenNoUndo = true
	case SkipCommute:
		u.brokenSkipCommute = true
	}
	return u
}
