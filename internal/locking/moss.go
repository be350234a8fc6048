// Package locking implements Moss' read/write locking object automaton
// M1_X (§5.2), generalized in the natural way to read/update locking over
// an arbitrary serial specification (the paper's M1_X is the special case
// where the specification is the read/write Register; the generalization is
// the M_X of [4] restricted to two lock classes).
//
// The automaton keeps, per object:
//
//   - write-lockholders: a chain of transactions ordered by ancestry, each
//     holding an exclusive lock, together with value(U) — the object state
//     as seen at U (the paper's stack of values);
//   - read-lockholders: the transactions holding shared locks;
//   - created / commit-requested bookkeeping, one access state per access.
//
// On INFORM_COMMIT the locks and value of the committed transaction move to
// its parent; on INFORM_ABORT the locks of all its descendants are
// discarded, which — because the values live on the write-lock chain —
// implicitly restores the pre-abort state: this is the "underlying recovery
// system" §3.2 assumes.
package locking

import (
	"fmt"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Moss is the read/update locking generic object automaton.
type Moss struct {
	tr *tname.Tree
	x  tname.ObjID
	sp spec.Spec

	// accesses and readLockholders are made on their first write: a server
	// configures objects that may never be accessed.
	accesses        map[tname.TxID]accessState
	readLockholders map[tname.TxID]bool
	// writeLockholders maps each exclusive-lock holder to its view of the
	// object state. The holders always form a chain under ancestry
	// (Lemma 9); T0 is a permanent holder of the initial state.
	writeLockholders map[tname.TxID]spec.State

	// broken configuration; all false for the faithful automaton.
	brokenIgnoreReadLocks bool
	brokenNoInheritance   bool
	brokenKeepAbortState  bool
}

// accessState holds an access's created and commit-requested flags.
type accessState uint8

const (
	created accessState = 1 << iota
	commitRequested
)

// NewMoss builds the faithful M1_X automaton for object x.
func NewMoss(tr *tname.Tree, x tname.ObjID) *Moss {
	m := &Moss{
		tr:               tr,
		x:                x,
		sp:               tr.Spec(x),
		writeLockholders: make(map[tname.TxID]spec.State),
	}
	m.writeLockholders[tname.Root] = m.sp.Init()
	return m
}

// Create implements object.Generic.
func (m *Moss) Create(t tname.TxID) {
	if m.accesses == nil {
		m.accesses = make(map[tname.TxID]accessState)
	}
	m.accesses[t] |= created
}

// pending reports whether t is created and has not requested to commit.
func (m *Moss) pending(t tname.TxID) bool { return m.accesses[t] == created }

// InformCommit implements object.Generic: locks and the stored state pass
// to the parent.
func (m *Moss) InformCommit(t tname.TxID) {
	if t == tname.Root {
		return
	}
	if m.brokenNoInheritance {
		// Negative control: drop the lock instead of passing it upward,
		// making the transaction's effects visible to everyone immediately.
		if st, ok := m.writeLockholders[t]; ok {
			delete(m.writeLockholders, t)
			m.writeLockholders[tname.Root] = st
		}
		delete(m.readLockholders, t)
		return
	}
	p := m.tr.Parent(t)
	if st, ok := m.writeLockholders[t]; ok {
		delete(m.writeLockholders, t)
		m.writeLockholders[p] = st
	}
	if m.readLockholders[t] {
		delete(m.readLockholders, t)
		m.readLockholders[p] = true
	}
}

// InformAbort implements object.Generic: every descendant of t loses its
// locks; the surviving chain values are exactly the pre-abort states, so no
// explicit restore is needed.
func (m *Moss) InformAbort(t tname.TxID) {
	if m.brokenKeepAbortState {
		// Negative control: "forget to undo" — instead of discarding the
		// aborted writers' state, merge it into the parent as if it had
		// committed. The holders form a chain, so if any holder lies below
		// t, the least one does, and it holds the latest write: merging
		// its state, whatever order the lock map yields the holders in,
		// keeps the run a function of its seed.
		latest := m.least()
		st, merge := m.writeLockholders[latest], latest != tname.Root && m.tr.IsDescendant(latest, t)
		for u := range m.writeLockholders {
			if u != tname.Root && m.tr.IsDescendant(u, t) {
				delete(m.writeLockholders, u)
			}
		}
		if merge {
			m.writeLockholders[m.tr.Parent(t)] = st
		}
		for u := range m.readLockholders {
			if m.tr.IsDescendant(u, t) {
				delete(m.readLockholders, u)
			}
		}
		return
	}
	for u := range m.writeLockholders {
		if u != tname.Root && m.tr.IsDescendant(u, t) {
			delete(m.writeLockholders, u)
		}
	}
	for u := range m.readLockholders {
		if m.tr.IsDescendant(u, t) {
			delete(m.readLockholders, u)
		}
	}
}

// least returns the least (deepest) write-lockholder: the unique descendant
// of all other holders.
func (m *Moss) least() tname.TxID {
	var best tname.TxID = tname.None
	bestDepth := -1
	for u := range m.writeLockholders {
		if d := m.tr.Depth(u); d > bestDepth {
			best, bestDepth = u, d
		}
	}
	return best
}

// TryRequestCommit implements object.Generic.
func (m *Moss) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !m.pending(t) {
		return spec.Nil, false
	}
	op := m.tr.AccessOp(t)
	if m.sp.ReadOnly(op) {
		// Read-class access: every write-lockholder must be an ancestor.
		for u := range m.writeLockholders {
			if !m.tr.IsAncestor(u, t) {
				return spec.Nil, false
			}
		}
		_, v := m.sp.Apply(m.writeLockholders[m.least()], op)
		m.accesses[t] |= commitRequested
		if m.readLockholders == nil {
			m.readLockholders = make(map[tname.TxID]bool)
		}
		m.readLockholders[t] = true
		return v, true
	}
	// Update-class access: every holder of any lock must be an ancestor.
	for u := range m.writeLockholders {
		if !m.tr.IsAncestor(u, t) {
			return spec.Nil, false
		}
	}
	if !m.brokenIgnoreReadLocks {
		for u := range m.readLockholders {
			if !m.tr.IsAncestor(u, t) {
				return spec.Nil, false
			}
		}
	}
	st, v := m.sp.Apply(m.writeLockholders[m.least()], op)
	m.accesses[t] |= commitRequested
	m.writeLockholders[t] = st
	return v, true
}

// Blockers implements object.Generic.
func (m *Moss) Blockers(t tname.TxID) []tname.TxID {
	if !m.pending(t) {
		return nil
	}
	op := m.tr.AccessOp(t)
	var out []tname.TxID
	for u := range m.writeLockholders {
		if !m.tr.IsAncestor(u, t) {
			out = append(out, u)
		}
	}
	if !m.sp.ReadOnly(op) && !m.brokenIgnoreReadLocks {
		for u := range m.readLockholders {
			if !m.tr.IsAncestor(u, t) {
				out = append(out, u)
			}
		}
	}
	return out
}

// Blocked implements object.BlockChecker: equivalent to
// len(Blockers(t)) > 0, but returns at the first non-ancestor lockholder
// without building the list. The runner polls this on every step.
func (m *Moss) Blocked(t tname.TxID) bool {
	if !m.pending(t) {
		return false
	}
	for u := range m.writeLockholders {
		if !m.tr.IsAncestor(u, t) {
			return true
		}
	}
	if !m.sp.ReadOnly(m.tr.AccessOp(t)) && !m.brokenIgnoreReadLocks {
		for u := range m.readLockholders {
			if !m.tr.IsAncestor(u, t) {
				return true
			}
		}
	}
	return false
}

// Audit implements object.Auditor: the faithful automaton must satisfy the
// Lemma 9 chain invariant at all times. Broken variants are exempt — their
// whole point is to violate the protocol.
func (m *Moss) Audit() error {
	if m.brokenIgnoreReadLocks || m.brokenNoInheritance || m.brokenKeepAbortState {
		return nil
	}
	return m.CheckChainInvariant()
}

// CheckChainInvariant verifies Lemma 9: any write-lockholder is ancestrally
// related to every other lockholder. Used by tests after every step.
func (m *Moss) CheckChainInvariant() error {
	for u := range m.writeLockholders {
		for w := range m.writeLockholders {
			if !m.tr.IsOrdered(u, w) {
				return fmt.Errorf("locking: write-lockholders %s and %s unrelated", m.tr.Name(u), m.tr.Name(w))
			}
		}
		for w := range m.readLockholders {
			if !m.tr.IsOrdered(u, w) {
				return fmt.Errorf("locking: write-lockholder %s and read-lockholder %s unrelated", m.tr.Name(u), m.tr.Name(w))
			}
		}
	}
	return nil
}

// Holders reports the current lock tables (copies); used by tests.
func (m *Moss) Holders() (writes map[tname.TxID]spec.State, reads map[tname.TxID]bool) {
	writes = make(map[tname.TxID]spec.State, len(m.writeLockholders))
	for u, st := range m.writeLockholders {
		writes[u] = st
	}
	reads = make(map[tname.TxID]bool, len(m.readLockholders))
	for u := range m.readLockholders {
		reads[u] = true
	}
	return writes, reads
}

// Protocol implements object.Protocol for the faithful Moss automaton.
type Protocol struct{}

// Name implements object.Protocol.
func (Protocol) Name() string { return "moss" }

// New implements object.Protocol.
func (Protocol) New(tr *tname.Tree, x tname.ObjID) object.Generic { return NewMoss(tr, x) }

// BrokenMode selects a deliberately incorrect variant of the automaton for
// the negative-control experiments (E3).
type BrokenMode uint8

// Broken modes.
const (
	// IgnoreReadLocks lets update accesses proceed despite read locks held
	// by non-ancestors (lost-update / non-repeatable-read bugs).
	IgnoreReadLocks BrokenMode = iota
	// NoInheritance releases locks to T0 on commit instead of passing them
	// to the parent (premature visibility).
	NoInheritance
	// KeepAbortState merges an aborted writer's state into its parent
	// instead of discarding it (broken recovery).
	KeepAbortState
)

// BrokenProtocol implements object.Protocol for broken Moss variants.
type BrokenProtocol struct{ Mode BrokenMode }

// Name implements object.Protocol.
func (p BrokenProtocol) Name() string {
	switch p.Mode {
	case IgnoreReadLocks:
		return "moss-broken-readlocks"
	case NoInheritance:
		return "moss-broken-inheritance"
	case KeepAbortState:
		return "moss-broken-recovery"
	}
	return "moss-broken"
}

// New implements object.Protocol.
func (p BrokenProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	m := NewMoss(tr, x)
	switch p.Mode {
	case IgnoreReadLocks:
		m.brokenIgnoreReadLocks = true
	case NoInheritance:
		m.brokenNoInheritance = true
	case KeepAbortState:
		m.brokenKeepAbortState = true
	}
	return m
}
