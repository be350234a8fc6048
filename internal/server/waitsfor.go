package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/graph"
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

// wakeWaiters signals every session parked on o. It runs in the critical
// section of each INFORM_COMMIT and INFORM_ABORT applied to o — the only
// automaton steps that can enable a refused REQUEST_COMMIT (DESIGN.md §8).
//
//sgvet:holds o.mu
func (o *sharedObject) wakeWaiters() {
	for _, w := range o.waiters {
		w.signal()
	}
}

// waitTable is the set of sessions currently parked on a refused access.
// A session runs one top-level transaction at a time, so there is one entry
// per waiting top, and the table keeps them sorted by top. The deadlock
// detector builds the waits-for graph between the waiters' top-level
// transactions from the objects' Blockers; Kill and a forced drain walk it
// to wake everyone.
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

// entries returns a copy of the table, sorted by top.
func (w *waitTable) entries() []*waitEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.waiters)
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

// breakDeadlock runs once after each refusal of me's access — the moment a
// waits-for edge out of me.top can have appeared — and reports whether me
// must abort to break a cycle.
//
// It snapshots the wait table, asks each waited-on object for the blockers
// of the waiting access, lifts every edge to the top-level transactions
// (waiter-top → blocker-top), and computes the strongly connected component
// containing me.top — not one DFS-discovered cycle: with overlapping cycles
// (T1⇄T2 and T2⇄T3 sharing T2) a per-cycle victim names several
// transactions, more than breaking the knot requires. The victim is the
// component's youngest member (largest TxID, the least work lost). It may
// be a session that parked before the edge that closed the cycle existed
// and will not look again by itself, so a victim other than me is marked
// and woken. Survivors scan again when the victim's INFORM_ABORTs wake them
// and they are still refused.
func (s *Server) breakDeadlock(me *waitEntry) bool {
	entries := s.waits.entries()
	if len(entries) < 2 {
		return false
	}
	// The waiting tops are numbered densely in TxID order, so a blocker's
	// top is found by binary search and the largest node is the youngest.
	i, ok := slices.BinarySearchFunc(entries, me.top, byTop)
	if !ok {
		return false
	}
	switch victim := knotVictim(s.waitsFor(entries), i); {
	case victim < 0:
		return false
	case entries[victim] == me:
		return true
	default:
		v := entries[victim]
		v.victim.Store(true)
		v.signal()
		return false
	}
}

// waitsFor builds the top-level waits-for graph of the registered waiters,
// entries sorted by top: node i is entries[i].top. Entries whose access was
// granted since the snapshot keep no out-edges: they are dequeued under the
// same object mutex the edge computation takes.
func (s *Server) waitsFor(entries []*waitEntry) graph.CSR {
	off := make([]int32, 1, len(entries)+1)
	var to []int32
	// one and blks are reused by every waiter's Blockers call.
	var one [1]tname.TxID
	var blks []tname.TxID
	for _, e := range entries {
		s.withObj(e.obj, func() { //sgvet:holds e.obj.mu, s.mu:r
			if !slices.Contains(e.obj.waiters, e) {
				return
			}
			one[0] = e.access
			blks = e.obj.g.Blockers(one[:], blks[:0])
			for _, blk := range blks {
				// Blockers never include ancestors of the access, so Root is
				// excluded and every blocker has a top-level ancestor.
				bt := s.tr.ChildAncestor(tname.Root, blk)
				if j, ok := slices.BinarySearchFunc(entries, bt, byTop); ok && bt != e.top {
					to = append(to, int32(j))
				}
			}
		})
		off = append(off, int32(len(to)))
	}
	return graph.CSR{Off: off, To: to}
}

// knotVictim returns the node that must abort to break the waits-for knot
// through me — the largest node of me's strongly connected component — or
// -1 when me lies on no cycle. Every member of a component computes the
// same answer whatever the order of its edges.
func knotVictim(g graph.CSR, me int) int {
	var search graph.Search
	comp, _ := search.Components(g)
	victim, size := -1, 0
	for v, c := range comp {
		if c == comp[me] {
			victim, size = v, size+1
		}
	}
	if size < 2 {
		// me waits into other transactions but no wait chain leads back.
		// (Self-edges cannot occur: waitsFor filters bt == e.top.)
		return -1
	}
	return victim
}
