package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/tname"
)

// waitEntry is one refused access and the session parked on it. It is
// allocated on the first refusal of a wait and discarded when the wait
// ends, so a signal or victim mark that arrives late lands on garbage
// instead of on the session's next wait.
type waitEntry struct {
	access tname.TxID
	top    tname.TxID
	obj    *sharedObject
	// witness is a blocker of access, asked under obj.mu, which guards it
	// and exact, at each refusal and at each INFORM that signals the entry
	// (askWitness). exact says the object named it, so object.Generic's wake
	// clause keeps it a blocker until an INFORM about an ancestor-or-self.
	witness tname.TxID
	exact   bool
	// witnessTop is the top of witness, or tname.None: top's one edge in the
	// waits-for relation, which breakDeadlock reads holding no object mutex.
	// Until the first ask it is Root, which never waits.
	witnessTop atomic.Int32
	// wake holds at most one pending wake-up. Senders never block: a second
	// signal before the session looks is the same news as the first.
	wake chan struct{}
	// deadline is when the LockTimeout safety net ends the wait.
	deadline time.Time
	// victim is set by the scan — this session's or another's — that chose
	// top to break a waits-for cycle; the session aborts when it sees it.
	victim atomic.Bool
}

func (e *waitEntry) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// askWitness records a current blocker of e's refused access: the object's
// own witness when it names one, else the first of its Blockers, which can
// move at any call into the object, so every INFORM there re-asks it.
//
//sgvet:holds e.obj.mu, s.mu:r
func (s *Server) askWitness(e *waitEntry) {
	w, _ := e.obj.g.Blocked(e.access)
	e.exact = w != tname.None
	if !e.exact {
		if blk := e.obj.g.Blockers([]tname.TxID{e.access}, nil); len(blk) > 0 {
			w = blk[0]
		}
	}
	e.witness = w
	top := tname.None
	if w != tname.None {
		// Blockers never include ancestors of the access, so Root is
		// excluded and every blocker has a top-level ancestor; one under
		// the waiter's own top is no edge between tops.
		if t := s.tr.ChildAncestor(tname.Root, w); t != e.top {
			top = t
		}
	}
	e.witnessTop.Store(int32(top))
}

// wakeWaiters signals the sessions parked on o whose witness the INFORM of t
// can have moved: an exact witness of which t is an ancestor-or-self, and
// every inexact one (an mvto reader's, whose too-late read must restart).
// It re-asks each one's witness, so that a scan before the session re-tries
// follows a current blocker. It runs in the critical section of each
// INFORM_COMMIT and INFORM_ABORT applied to o — the only automaton steps
// that can enable a refused REQUEST_COMMIT (DESIGN.md §8).
//
//sgvet:holds o.mu, s.mu:r
func (s *Server) wakeWaiters(o *sharedObject, t tname.TxID) {
	for _, e := range o.waiters {
		if e.exact && !s.tr.IsAncestor(t, e.witness) {
			continue
		}
		s.askWitness(e)
		e.signal()
	}
}

// waitTable is the set of sessions currently parked on a refused access.
// A session runs one top-level transaction at a time, so there is one entry
// per waiting top, and the table keeps them sorted by top. The deadlock
// detector follows the waiters' witness tops through it; Kill and a forced
// drain walk it to wake everyone.
type waitTable struct {
	mu      sync.Mutex
	waiters []*waitEntry //sgvet:guardedby mu
}

func (w *waitTable) register(e *waitEntry) {
	w.mu.Lock()
	i, _ := slices.BinarySearchFunc(w.waiters, e.top, byTop)
	w.waiters = slices.Insert(w.waiters, i, e)
	w.mu.Unlock()
}

func (w *waitTable) unregister(e *waitEntry) {
	w.mu.Lock()
	if i, ok := slices.BinarySearchFunc(w.waiters, e.top, byTop); ok && w.waiters[i] == e {
		w.waiters = slices.Delete(w.waiters, i, i+1)
	}
	w.mu.Unlock()
}

// byTop orders wait entries by their top-level transaction.
func byTop(e *waitEntry, top tname.TxID) int { return cmp.Compare(e.top, top) }

// wakeAll signals every registered waiter. Kill and a forced drain call it
// after setting s.killed; a session registers before it checks that flag,
// so one that the walk misses sees the flag instead of parking.
func (w *waitTable) wakeAll() {
	w.mu.Lock()
	for _, e := range w.waiters {
		e.signal()
	}
	w.mu.Unlock()
}

// enterWait and exitWait add e to, and remove it from, both its object's
// queue and the wait table. A wait is entered in the critical section that
// refused the access and exited in the one that grants it (or by
// leaveWait), so under the object mutex "queued" and "still refused" are
// the same fact.

//sgvet:holds e.obj.mu
func (s *Server) enterWait(e *waitEntry) {
	e.obj.waiters = append(e.obj.waiters, e)
	s.waits.register(e)
}

//sgvet:holds e.obj.mu
func (s *Server) exitWait(e *waitEntry) {
	if i := slices.Index(e.obj.waiters, e); i >= 0 {
		e.obj.waiters = slices.Delete(e.obj.waiters, i, i+1)
	}
	s.waits.unregister(e)
}

// leaveWait ends e's wait on every path that is not a grant (the granting
// critical section exits by itself): once it returns, no INFORM on the
// object and no scan can reach e.
func (s *Server) leaveWait(e *waitEntry) {
	e.obj.mu.Lock()
	s.exitWait(e)
	e.obj.mu.Unlock()
}

// breakDeadlock runs once after each refusal of me's access — the moment
// me.top's edge in the waits-for relation can have appeared or moved — and
// reports whether me must abort to break a cycle.
//
// A session runs one access at a time, so a waiting top has one edge: to
// the top of its entry's witness. breakDeadlock follows those edges from
// me.top, holding only the table's mutex. Back at me.top, the chain is a
// cycle, and its youngest top (largest TxID, the least work lost) is the
// victim. At a top that is not waiting, no deadlock runs through me; after
// more steps than the table has entries, me only leads into a cycle, which
// its members' own scans find. A victim other than me may have parked
// before the edge that closed the cycle existed and will not look again by
// itself, so it is marked and woken. Survivors scan again when the victim's
// INFORM_ABORTs wake them and they are still refused.
func (s *Server) breakDeadlock(me *waitEntry) bool {
	w := &s.waits
	w.mu.Lock()
	defer w.mu.Unlock()
	victim, next := me, tname.TxID(me.witnessTop.Load())
	for range w.waiters {
		if next == me.top {
			if victim == me {
				return true
			}
			victim.victim.Store(true)
			victim.signal()
			return false
		}
		i, ok := slices.BinarySearchFunc(w.waiters, next, byTop)
		if !ok {
			return false
		}
		e := w.waiters[i]
		if e.top > victim.top {
			victim = e
		}
		next = tname.TxID(e.witnessTop.Load())
	}
	return false
}
