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
//     as seen at U (the paper's stack of values). Lemma 9 makes the
//     holders a chain, so they are a slice, T0 first: the least holder is
//     the last entry, "every write-lockholder is an ancestor of T" asks
//     only about it, and the holders that are not ancestors of T are a
//     suffix;
//   - read-lockholders: the transactions holding shared locks, a small
//     slice;
//   - created / commit-requested bookkeeping, one access state per access.
//
// No query iterates a map, so a step costs what the locks it looks at
// cost, and the answers do not depend on map order.
//
// On INFORM_COMMIT the locks and value of the committed transaction move to
// its parent; on INFORM_ABORT the locks of all its descendants are
// discarded, which — because the values live on the write-lock chain —
// implicitly restores the pre-abort state: this is the "underlying recovery
// system" §3.2 assumes.
package locking

import (
	"fmt"
	"slices"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Moss is the read/update locking generic object automaton.
type Moss struct {
	tr *tname.Tree
	x  tname.ObjID
	sp spec.Spec

	// accesses is made on its first write: a server configures objects
	// that may never be accessed.
	accesses map[tname.TxID]accessState
	// writeLockholders is the write-lock chain, T0 first: each holder is
	// an ancestor of the next (Lemma 9), so the least holder is the last,
	// and the holders that are not ancestors of a transaction are a
	// suffix. T0 is a permanent holder of the initial state.
	writeLockholders []holder
	// readLockholders are the shared-lock holders, each once.
	readLockholders []tname.TxID

	// broken configuration; all false for the faithful automaton.
	brokenIgnoreReadLocks bool
	brokenNoInheritance   bool
	brokenKeepAbortState  bool
}

// holder is one write-lockholder and its view of the object state.
type holder struct {
	tx tname.TxID
	st spec.State
}

// accessState holds an access's created and commit-requested flags.
type accessState uint8

const (
	created accessState = 1 << iota
	commitRequested
)

// NewMoss builds the faithful M1_X automaton for object x.
func NewMoss(tr *tname.Tree, x tname.ObjID) *Moss {
	sp := tr.Spec(x)
	return &Moss{
		tr:               tr,
		x:                x,
		sp:               sp,
		writeLockholders: []holder{{tx: tname.Root, st: sp.Init()}},
	}
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

// writeIndex returns the chain index of t's write lock, or -1.
func (m *Moss) writeIndex(t tname.TxID) int {
	for i := len(m.writeLockholders) - 1; i >= 0; i-- {
		if m.writeLockholders[i].tx == t {
			return i
		}
	}
	return -1
}

// dropWrite removes chain entry i and returns its state.
func (m *Moss) dropWrite(i int) spec.State {
	st := m.writeLockholders[i].st
	m.writeLockholders = append(m.writeLockholders[:i], m.writeLockholders[i+1:]...)
	return st
}

// readIndex returns the index of t's read lock, or -1.
func (m *Moss) readIndex(t tname.TxID) int {
	for i, u := range m.readLockholders {
		if u == t {
			return i
		}
	}
	return -1
}

// InformCommit implements object.Generic: locks and the stored state pass
// to the parent.
func (m *Moss) InformCommit(t tname.TxID) {
	if t == tname.Root {
		return
	}
	if m.brokenNoInheritance {
		// Negative control: drop the lock instead of passing it upward,
		// making the transaction's effects visible to everyone immediately.
		if i := m.writeIndex(t); i >= 0 {
			m.writeLockholders[0].st = m.dropWrite(i)
		}
		if i := m.readIndex(t); i >= 0 {
			m.readLockholders = slices.Delete(m.readLockholders, i, i+1)
		}
		return
	}
	p := m.tr.Parent(t)
	if i := m.writeIndex(t); i >= 0 {
		// The holder above t is an ancestor of t, so of p too: t's entry
		// becomes p's, or merges into it when p already holds the lock.
		if m.writeLockholders[i-1].tx == p {
			m.writeLockholders[i-1].st = m.dropWrite(i)
		} else {
			m.writeLockholders[i].tx = p
		}
	}
	if i := m.readIndex(t); i >= 0 {
		if m.readIndex(p) >= 0 {
			m.readLockholders = slices.Delete(m.readLockholders, i, i+1)
		} else {
			m.readLockholders[i] = p
		}
	}
}

// InformAbort implements object.Generic: every descendant of t loses its
// locks; the surviving chain values are exactly the pre-abort states, so no
// explicit restore is needed.
func (m *Moss) InformAbort(t tname.TxID) {
	// The descendants of t on the chain are a suffix of it.
	chain := m.writeLockholders
	n := len(chain)
	for n > 1 && m.tr.IsDescendant(chain[n-1].tx, t) {
		n--
	}
	if m.brokenKeepAbortState && n < len(chain) {
		// Negative control: "forget to undo" — instead of discarding the
		// aborted writers' state, merge the latest one, the least
		// holder's, into the parent as if it had committed. The holders
		// left are ancestors of t, so the parent joins the chain last.
		st, p := chain[len(chain)-1].st, m.tr.Parent(t)
		if chain[n-1].tx == p {
			chain[n-1].st = st
		} else {
			chain[n] = holder{tx: p, st: st}
			n++
		}
	}
	clear(chain[n:])
	m.writeLockholders = chain[:n]
	m.readLockholders = slices.DeleteFunc(m.readLockholders, func(u tname.TxID) bool {
		return m.tr.IsDescendant(u, t)
	})
}

// least returns the least (deepest) write-lockholder's entry: the unique
// descendant of all other holders.
func (m *Moss) least() holder { return m.writeLockholders[len(m.writeLockholders)-1] }

// readBlocker returns a read-lockholder that is not an ancestor of t, and
// whether there is one: such a lock blocks an update by t.
func (m *Moss) readBlocker(t tname.TxID) (tname.TxID, bool) {
	if m.brokenIgnoreReadLocks {
		return tname.None, false
	}
	for _, u := range m.readLockholders {
		if !m.tr.IsAncestor(u, t) {
			return u, true
		}
	}
	return tname.None, false
}

// TryRequestCommit implements object.Generic.
func (m *Moss) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !m.pending(t) {
		return spec.Nil, false
	}
	// Every write-lockholder must be an ancestor of t; on the chain it is
	// enough that the least one is.
	least := m.least()
	if !m.tr.IsAncestor(least.tx, t) {
		return spec.Nil, false
	}
	op := m.tr.AccessOp(t)
	if m.sp.ReadOnly(op) {
		_, v := m.sp.Apply(least.st, op)
		m.accesses[t] |= commitRequested
		m.readLockholders = append(m.readLockholders, t)
		return v, true
	}
	// Update-class access: every holder of any lock must be an ancestor.
	if _, blocked := m.readBlocker(t); blocked {
		return spec.Nil, false
	}
	st, v := m.sp.Apply(least.st, op)
	m.accesses[t] |= commitRequested
	m.writeLockholders = append(m.writeLockholders, holder{tx: t, st: st})
	return v, true
}

// Blockers implements object.Generic. The write-lockholders that are not
// ancestors of a waiter are a suffix of the chain, so the union of the
// waiters' suffixes is the longest one: each waiter extends it past the
// entries already listed, and the chain is walked once for all of them. A
// read-lockholder is listed at the first update waiter it is not an
// ancestor of.
func (m *Moss) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	lo := len(m.writeLockholders) // the suffix listed so far
	update := false               // some pending waiter is an update
	for _, t := range ts {
		if !m.pending(t) {
			continue
		}
		i := lo - 1
		for ; i > 0 && !m.tr.IsAncestor(m.writeLockholders[i].tx, t); i-- {
			out = append(out, m.writeLockholders[i].tx)
		}
		lo = i + 1
		update = update || !m.sp.ReadOnly(m.tr.AccessOp(t))
	}
	if !update || m.brokenIgnoreReadLocks {
		return out
	}
	for _, u := range m.readLockholders {
		for _, t := range ts {
			if m.pending(t) && !m.sp.ReadOnly(m.tr.AccessOp(t)) && !m.tr.IsAncestor(u, t) {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// Blocked implements object.Generic: it asks only whether the least
// write-lockholder is an ancestor and returns at the first non-ancestor
// read-lockholder. The witness is the holder it stops at: the least
// write-lockholder, which is the least of the non-ancestors when it is
// one, else the read-lockholder. Under the wake clause only an INFORM
// about an ancestor-or-self of a holder moves or drops its lock, and a
// grant only adds one. A broken variant names no witness.
func (m *Moss) Blocked(t tname.TxID) (tname.TxID, bool) {
	if !m.pending(t) {
		return tname.None, false
	}
	if least := m.least().tx; !m.tr.IsAncestor(least, t) {
		return m.witness(least), true
	}
	if m.sp.ReadOnly(m.tr.AccessOp(t)) {
		return tname.None, false
	}
	if u, blocked := m.readBlocker(t); blocked {
		return m.witness(u), true
	}
	return tname.None, false
}

// witness is u, or tname.None for a broken variant.
func (m *Moss) witness(u tname.TxID) tname.TxID {
	if m.broken() {
		return tname.None
	}
	return u
}

// broken reports whether this is a deliberately incorrect variant.
func (m *Moss) broken() bool {
	return m.brokenIgnoreReadLocks || m.brokenNoInheritance || m.brokenKeepAbortState
}

// Audit implements object.Auditor: the faithful automaton must satisfy the
// Lemma 9 chain invariant at all times. Broken variants are exempt — their
// whole point is to violate the protocol.
func (m *Moss) Audit() error {
	if m.broken() {
		return nil
	}
	return m.CheckChainInvariant()
}

// CheckChainInvariant verifies Lemma 9: any write-lockholder is ancestrally
// related to every other lockholder. The chain is stored in ancestry order,
// T0 first, so it checks each holder against the next, and each
// read-lockholder against the least holder. Used by tests after every step.
func (m *Moss) CheckChainInvariant() error {
	chain := m.writeLockholders
	if chain[0].tx != tname.Root {
		return fmt.Errorf("locking: write-lock chain starts at %s, not T0", m.tr.Name(chain[0].tx))
	}
	for i := 1; i < len(chain); i++ {
		if u, w := chain[i-1].tx, chain[i].tx; u == w || !m.tr.IsAncestor(u, w) {
			return fmt.Errorf("locking: write-lockholders %s and %s unrelated", m.tr.Name(u), m.tr.Name(w))
		}
	}
	least := m.least().tx
	for _, w := range m.readLockholders {
		if !m.tr.IsOrdered(least, w) {
			return fmt.Errorf("locking: write-lockholder %s and read-lockholder %s unrelated", m.tr.Name(least), m.tr.Name(w))
		}
	}
	return nil
}

// Holders reports the current lock tables (copies); used by tests.
func (m *Moss) Holders() (writes map[tname.TxID]spec.State, reads map[tname.TxID]bool) {
	writes = make(map[tname.TxID]spec.State, len(m.writeLockholders))
	for _, h := range m.writeLockholders {
		writes[h.tx] = h.st
	}
	reads = make(map[tname.TxID]bool, len(m.readLockholders))
	for _, u := range m.readLockholders {
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
