package server

import (
	"slices"
	"testing"

	"nestedsg/internal/graph"
	"nestedsg/internal/tname"
)

// The deadlock detector the witness chain replaced, kept as the reference
// TestWitnessChain holds the chain to: the waits-for graph of every
// blocker of every waiting access, lifted to top-level transactions, and
// the strongly connected component through the scanning top. A cycle the
// chain finds is a cycle of this graph, so it lies inside that component;
// the component can be larger, and name another victim, when it is a knot
// of overlapping cycles.

// entries returns a copy of the table, sorted by top.
func (w *waitTable) entries() []*waitEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.waiters)
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

// TestKnotVictimMatchesReference holds knotVictim over the dense waits-for
// graph to the map-based sccVictim it replaced, from every waiting top, on
// one row per shape of the graph.
func TestKnotVictimMatchesReference(t *testing.T) {
	for _, row := range []struct {
		name  string
		tops  []tname.TxID
		edges map[tname.TxID][]tname.TxID
	}{
		{"no cycle", []tname.TxID{3, 5, 8, 9}, map[tname.TxID][]tname.TxID{3: {5}, 5: {8}, 9: {3, 8}}},
		{"one cycle", []tname.TxID{3, 5, 8, 9}, map[tname.TxID][]tname.TxID{3: {5}, 5: {8}, 8: {3}, 9: {3}}},
		{"overlapping cycles", []tname.TxID{3, 5, 8}, map[tname.TxID][]tname.TxID{3: {5}, 5: {3, 8}, 8: {5}}},
		{"chain into a cycle", []tname.TxID{3, 5, 8, 9}, map[tname.TxID][]tname.TxID{3: {5}, 5: {8}, 8: {9}, 9: {8}}},
	} {
		off := []int32{0}
		var to []int32
		for _, u := range row.tops {
			for _, v := range row.edges[u] {
				j, _ := slices.BinarySearch(row.tops, v)
				to = append(to, int32(j))
			}
			off = append(off, int32(len(to)))
		}
		g := graph.CSR{Off: off, To: to}
		for i, start := range row.tops {
			got := tname.None
			if v := knotVictim(g, i); v >= 0 {
				got = row.tops[v]
			}
			if want := sccVictim(start, row.edges); got != want {
				t.Errorf("%s: the victim of the knot through %v is %v, the reference names %v", row.name, start, got, want)
			}
		}
	}
}

// sccVictim is the server's victim rule as it was before breakDeadlock
// moved onto graph.Search, over maps: the transaction that must abort to
// break the waits-for knot through start — the largest TxID of start's strongly connected
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
