package server

import (
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
	sess   int64
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

// waitTable is the set of sessions currently parked on a refused access,
// keyed by session. The deadlock detector builds the waits-for graph
// between the waiters' top-level transactions from the objects' Blockers;
// Kill and a forced drain walk it to wake everyone.
type waitTable struct {
	mu      sync.Mutex
	waiters map[int64]*waitEntry //sgvet:guardedby mu
}

func newWaitTable() *waitTable {
	return &waitTable{waiters: make(map[int64]*waitEntry)}
}

func (w *waitTable) register(e *waitEntry) {
	w.mu.Lock()
	w.waiters[e.sess] = e
	w.mu.Unlock()
}

func (w *waitTable) unregister(sess int64) {
	w.mu.Lock()
	delete(w.waiters, sess)
	w.mu.Unlock()
}

func (w *waitTable) entries() []*waitEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*waitEntry, 0, len(w.waiters))
	for _, e := range w.waiters {
		out = append(out, e)
	}
	return out
}

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
	s.waits.unregister(e.sess)
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
	byTop := make(map[tname.TxID]*waitEntry, len(entries))
	for _, e := range entries {
		byTop[e.top] = e
	}
	switch victim := sccVictim(me.top, s.waitsFor(entries, byTop)); victim {
	case tname.None:
		return false
	case me.top:
		return true
	default:
		v := byTop[victim]
		v.victim.Store(true)
		v.signal()
		return false
	}
}

// waitsFor builds the top-level waits-for edges of the registered waiters.
// Entries whose access was granted since the snapshot are skipped: they are
// dequeued under the same object mutex the edge computation takes.
func (s *Server) waitsFor(entries []*waitEntry, waiting map[tname.TxID]*waitEntry) map[tname.TxID][]tname.TxID {
	edges := make(map[tname.TxID][]tname.TxID, len(entries))
	for _, e := range entries {
		s.withObj(e.obj, func() { //sgvet:holds e.obj.mu, s.mu:r
			if !slices.Contains(e.obj.waiters, e) {
				return
			}
			for _, blk := range e.obj.g.Blockers(e.access) {
				// Blockers never include ancestors of the access, so Root is
				// excluded and every blocker has a top-level ancestor.
				bt := s.tr.ChildAncestor(tname.Root, blk)
				if bt != e.top && waiting[bt] != nil {
					edges[e.top] = append(edges[e.top], bt)
				}
			}
		})
	}
	return edges
}

// sccVictim returns the transaction that must abort to break the waits-for
// knot through start — the largest TxID of start's strongly connected
// component — or tname.None when start lies on no cycle. Every member of a
// component computes the same answer whatever the order of its edge lists.
func sccVictim(start tname.TxID, edges map[tname.TxID][]tname.TxID) tname.TxID {
	scc := sccThrough(start, edges)
	if len(scc) < 2 {
		// start waits into other transactions but no wait chain leads back.
		// (Self-edges cannot occur: waitsFor filters bt == e.top.)
		return tname.None
	}
	victim := scc[0]
	for _, t := range scc[1:] {
		if t > victim {
			victim = t
		}
	}
	return victim
}

// sccThrough returns the strongly connected component containing start:
// the nodes reachable from start that also reach it. The component always
// contains start itself; any second member certifies a cycle through
// start, and the set is the union of every such cycle's nodes.
func sccThrough(start tname.TxID, edges map[tname.TxID][]tname.TxID) []tname.TxID {
	fwd := reachable(start, edges)
	rev := make(map[tname.TxID][]tname.TxID, len(edges))
	for u, vs := range edges {
		for _, v := range vs {
			rev[v] = append(rev[v], u)
		}
	}
	bwd := reachable(start, rev)
	var scc []tname.TxID
	for t := range fwd {
		if bwd[t] {
			scc = append(scc, t)
		}
	}
	return scc
}

// reachable returns the set of nodes reachable from start (including
// start) by following edges.
func reachable(start tname.TxID, edges map[tname.TxID][]tname.TxID) map[tname.TxID]bool {
	seen := map[tname.TxID]bool{start: true}
	stack := []tname.TxID{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range edges[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
