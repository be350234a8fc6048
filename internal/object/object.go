// Package object defines the generic object automaton interface of §5.1:
// the contract between the generic controller and the per-object
// concurrency-control/recovery automata (Moss locking, undo logging, and
// the deliberately broken variants used as negative controls).
//
// A generic object for X has CREATE(T) and the INFORM inputs, and decides
// when a REQUEST_COMMIT(T, v) output is enabled and what v is. The runner
// in internal/generic drives implementations through this interface.
package object

import (
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Generic is one generic object automaton G_X. Implementations are not
// required to be safe for concurrent use: the generic controller serializes
// all calls (the paper's automata take atomic steps).
//
// The queries — Blockers, Blocked and Aborter.ShouldAbort — are functions
// of the automaton's state, and that state changes only through its own
// actions: Create, TryRequestCommit (performed or refused) and the two
// INFORMs. This is the I/O-automaton discipline of §2, and the runner in
// internal/generic relies on it: it caches each pending access's answers
// until the next call into the same object. A query may keep a memo of
// derived state, but its answer must not depend on anything that can
// change without such a call, such as another object's state or a random
// draw. Shared state that is fixed by the time it is read is fine: MVTO's
// clock assigns an access its path at Create, and later reads only return
// it.
//
// Create(T) changes no query answer about any other access: as in the
// paper's M1_X and U_X (§5.2, §6.2), CREATE(T) only adds T to created, and
// what blocks or dooms another access is the object's locks, log or
// versions, which Create does not touch. The runner relies on this too: a
// Create leaves the cached answers of the object's other accesses, and
// its parked waiters, as they were.
//
// The wake clause says which other calls can unblock a blocked access. Let
// Blocked(T) name a witness W other than tname.None. Then W is a member of
// Blockers({T}), and it stays one, so T stays blocked and ShouldAbort(T)
// stays false, through every call into the object but these:
//
//   - an INFORM_COMMIT or INFORM_ABORT of an ancestor-or-self of W;
//   - a refused TryRequestCommit, which may change state (a replicated
//     object's consumes availability draws).
//
// In M1_X (§5.2, Lemma 9) an INFORM about U moves or drops only the locks
// of U's subtree, and a grant only adds a lock. In U_X (§6.2) an INFORM
// about U moves the low mark or drops the entries of U's subtree only;
// a grant or an INFORM_ABORT changes the replayed state, and with it the
// value a pending access would return, which only a type whose Conflicts
// reads return values can see, so an undo log over such a type names no
// witness. A witness of tname.None promises nothing: the access must be
// asked again after every call into the object. The runner parks a
// blocked access with its witness and wakes it only when the clause lets
// it go.
type Generic interface {
	// Create handles the CREATE(T) input for an access T to this object.
	Create(t tname.TxID)

	// InformCommit handles INFORM_COMMIT_AT(X)OF(T). The controller
	// delivers informs for each object in completion order, so commit
	// informs arrive leaf-to-root (ascending), matching the lock-visibility
	// premises of §5.3.
	InformCommit(t tname.TxID)

	// InformAbort handles INFORM_ABORT_AT(X)OF(T).
	InformAbort(t tname.TxID)

	// TryRequestCommit attempts the REQUEST_COMMIT(T, v) output for a
	// created, unresponded access T. If the action is enabled it is
	// performed and (v, true) is returned; otherwise the state is unchanged
	// and ok is false.
	TryRequestCommit(t tname.TxID) (v spec.Value, ok bool)

	// Blockers appends to out, and returns, the union over the accesses ts
	// of the transactions whose activity currently disables REQUEST_COMMIT
	// for the access (lock holders that are not ancestors of it, or
	// uncommitted non-commuting operations); accesses of ts that are not
	// pending add nothing. One call answers for all the waiters of the
	// object, so an implementation can share the work among them; a
	// caller that wants one access's blockers passes one access. The
	// runner uses this for deadlock victim selection; it must not change
	// state. The order of the list carries no meaning, and a transaction
	// may appear more than once. The buffer is the caller's: the
	// automaton keeps no reference to out or ts.
	Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID

	// Blocked reports whether the access t is pending and blocked, that
	// is whether len(Blockers({t}, nil)) > 0, without building the list,
	// and names a witness for the wake clause: a member of Blockers({t})
	// that keeps t blocked until the clause lets it go, or tname.None,
	// which promises nothing. An access that is not blocked names
	// tname.None. The runner asks it for each pending access whose cached
	// answer the clause no longer covers, and falls back to Blockers only
	// when choosing deadlock victims, where the full list is needed.
	// Blocked must not change state.
	Blocked(t tname.TxID) (witness tname.TxID, blocked bool)
}

// Aborter is optionally implemented by generic objects whose protocol
// aborts transactions instead of (only) blocking them — e.g. multiversion
// timestamp ordering, where a write that arrives "too late" can never be
// granted. When ShouldAbort reports true for a pending access, the runner
// aborts the access's top-level transaction (the classical restart).
// ShouldAbort must not change state.
type Aborter interface {
	ShouldAbort(t tname.TxID) bool
}

// Auditor is optionally implemented by generic objects that can check
// their own invariants (e.g. the lock-chain invariant of Lemma 9). The
// runner calls Audit after every step when invariant auditing is enabled.
type Auditor interface {
	Audit() error
}

// Protocol constructs the generic object automaton for each object of a
// system — one concurrency-control/recovery algorithm.
type Protocol interface {
	// Name identifies the protocol ("moss", "undolog", ...).
	Name() string
	// New builds the generic object for x.
	New(tr *tname.Tree, x tname.ObjID) Generic
}
