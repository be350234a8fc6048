package generic

// The parent's map-based Moss automaton (internal/locking), kept verbatim
// but for its names, as the reference the automata differential
// (TestAutomataMatchReference) holds the chain-slice Moss to. Its
// Protocol wrappers are left out: the differential sets the broken flags
// itself.

import (
	"fmt"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// refMoss is the read/update locking generic object automaton.
type refMoss struct {
	tr *tname.Tree
	x  tname.ObjID
	sp spec.Spec

	// accesses and readLockholders are made on their first write: a server
	// configures objects that may never be accessed.
	accesses        map[tname.TxID]refAccessState
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

// refAccessState holds an access's created and commit-requested flags.
type refAccessState uint8

const (
	refCreated refAccessState = 1 << iota
	refCommitRequested
)

// newRefMoss builds the faithful M1_X automaton for object x.
func newRefMoss(tr *tname.Tree, x tname.ObjID) *refMoss {
	m := &refMoss{
		tr:               tr,
		x:                x,
		sp:               tr.Spec(x),
		writeLockholders: make(map[tname.TxID]spec.State),
	}
	m.writeLockholders[tname.Root] = m.sp.Init()
	return m
}

// Create implements object.Generic.
func (m *refMoss) Create(t tname.TxID) {
	if m.accesses == nil {
		m.accesses = make(map[tname.TxID]refAccessState)
	}
	m.accesses[t] |= refCreated
}

// pending reports whether t is created and has not requested to commit.
func (m *refMoss) pending(t tname.TxID) bool { return m.accesses[t] == refCreated }

// InformCommit implements object.Generic: locks and the stored state pass
// to the parent.
func (m *refMoss) InformCommit(t tname.TxID) {
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
func (m *refMoss) InformAbort(t tname.TxID) {
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
func (m *refMoss) least() tname.TxID {
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
func (m *refMoss) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
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
		m.accesses[t] |= refCommitRequested
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
	m.accesses[t] |= refCommitRequested
	m.writeLockholders[t] = st
	return v, true
}

// Blockers implements object.Generic: each access's blockers in turn.
func (m *refMoss) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	for _, t := range ts {
		out = append(out, m.blockersOf(t)...)
	}
	return out
}

// blockersOf returns the blockers of access t.
func (m *refMoss) blockersOf(t tname.TxID) []tname.TxID {
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

// Blocked is the bool query the lockstep compares object.Generic's Blocked
// against: equivalent to len(blockersOf(t)) > 0, but returns at the first
// non-ancestor lockholder without building the list.
func (m *refMoss) Blocked(t tname.TxID) bool {
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
func (m *refMoss) Audit() error {
	if m.brokenIgnoreReadLocks || m.brokenNoInheritance || m.brokenKeepAbortState {
		return nil
	}
	return m.CheckChainInvariant()
}

// CheckChainInvariant verifies Lemma 9: any write-lockholder is ancestrally
// related to every other lockholder. Used by tests after every step.
func (m *refMoss) CheckChainInvariant() error {
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
func (m *refMoss) Holders() (writes map[tname.TxID]spec.State, reads map[tname.TxID]bool) {
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
