package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/graph"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// The overlapping-cycles knot both tests below build: two waits-for cycles
// sharing a transaction, T1⇄T2 and T2⇄T3 (Moss read/update locks; reads
// share, writes exclude):
//
//	T1 holds read x, blocks on read y  → edge T1→T2
//	T3 holds read x, blocks on read z  → edge T3→T2
//	T2 holds write y and write z, blocks on write x → edges T2→T1, T2→T3
//
// A per-cycle victim rule names both T2 (maximum of its cycle with T1) and
// T3 (maximum of its cycle with T2); the SCC rule must name one victim for
// the whole knot: its largest TxID.

// TestVictimChoiceOverlappingCycles drives the automata and the wait table
// by hand — no sessions, so nothing resolves the knot behind the test's
// back — and checks that whichever of the three waiters runs the scan, the
// same single victim comes out, marked and woken when it is not the scanner.
func TestVictimChoiceOverlappingCycles(t *testing.T) {
	s := New(Options{Objects: []string{"x", "y", "z"}, LockTimeout: 30 * time.Second})
	defer s.Kill()

	tops := make([]tname.TxID, 3)
	for i := range tops {
		tops[i] = s.internTx(tname.Root, fmt.Sprintf("t%d", i+1), tname.NoObj, spec.Op{})
	}
	label := 0
	// try creates one access of top on obj and attempts its grant; a granted
	// access commits at once (its lock passes to top), a refused one enters
	// the wait exactly as session.waitGrant does.
	try := func(top tname.TxID, name string, op spec.Op) *waitEntry {
		t.Helper()
		obj, err := s.resolveObject(name)
		if err != nil {
			t.Fatal(err)
		}
		label++
		acc := s.internTx(top, fmt.Sprintf("a%d", label), obj.id, op)
		var e *waitEntry
		s.withObj(obj, func() { //sgvet:holds obj.mu, s.mu:r
			obj.g.Create(acc)
			if _, ok := obj.g.TryRequestCommit(acc); ok {
				obj.g.InformCommit(acc)
				return
			}
			e = &waitEntry{access: acc, top: top, obj: obj, wake: make(chan struct{}, 1)}
			s.enterWait(e)
		})
		return e
	}
	hold := func(top tname.TxID, name string, op spec.Op) {
		t.Helper()
		if try(top, name, op) != nil {
			t.Fatalf("access of %v to %s refused, want granted", top, name)
		}
	}
	block := func(top tname.TxID, name string, op spec.Op) *waitEntry {
		t.Helper()
		e := try(top, name, op)
		if e == nil {
			t.Fatalf("access of %v to %s granted, want refused", top, name)
		}
		return e
	}
	read := spec.Op{Kind: spec.OpRead, Arg: spec.Nil}
	write := spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)}

	hold(tops[0], "x", read)
	hold(tops[1], "y", write)
	hold(tops[1], "z", write)
	hold(tops[2], "x", read)
	waiters := []*waitEntry{
		block(tops[0], "y", read),
		block(tops[2], "z", read),
		block(tops[1], "x", write),
	}
	victim := waiters[1] // T3: the largest TxID of the one component

	for _, scanner := range waiters {
		victim.victim.Store(false)
		select {
		case <-victim.wake:
		default:
		}
		self := s.breakDeadlock(scanner)
		if self != (scanner == victim) {
			t.Fatalf("scan by %v: self-selected = %v, want %v", scanner.top, self, scanner == victim)
		}
		for _, w := range waiters {
			if w != victim && w.victim.Load() {
				t.Fatalf("scan by %v marked %v; the knot needs exactly one victim, %v", scanner.top, w.top, victim.top)
			}
		}
		if scanner == victim {
			continue
		}
		if !victim.victim.Load() {
			t.Fatalf("scan by %v did not mark the victim %v", scanner.top, victim.top)
		}
		select {
		case <-victim.wake:
		default:
			t.Fatalf("scan by %v marked the victim but did not wake it", scanner.top)
		}
	}

	// Once the victim has left, the residual T1⇄T2 cycle has its own victim.
	s.leaveWait(victim)
	if !s.breakDeadlock(waiters[2]) {
		t.Fatalf("after %v left, %v must self-select in the residual cycle", victim.top, waiters[2].top)
	}
	for _, w := range waiters {
		s.leaveWait(w)
	}
	if n := len(s.waits.entries()); n != 0 {
		t.Fatalf("%d entries left in the wait table", n)
	}
}

// TestOverlappingCyclesAllCommit runs the knot through real sessions: it
// must dissolve by itself — detection is immediate, so the three sessions
// never all stay blocked — with every transaction committing in the end,
// at most two victims (T3, then the younger of the residual T1⇄T2 cycle)
// and no lock timeout. An aborted transaction retries only after every
// first attempt is over, one at a time, so retries add no new cycle.
func TestOverlappingCyclesAllCommit(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Options{
		Objects:     []string{"x", "y", "z"},
		LockTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		obj string
		op  spec.OpKind
		arg spec.Value
	}
	scripts := [][]step{
		{{"x", spec.OpRead, spec.Nil}, {"y", spec.OpRead, spec.Nil}},
		{{"y", spec.OpWrite, spec.Int(1)}, {"z", spec.OpWrite, spec.Int(1)}, {"x", spec.OpWrite, spec.Int(2)}},
		{{"x", spec.OpRead, spec.Nil}, {"z", spec.OpRead, spec.Nil}},
	}
	var (
		held     sync.WaitGroup // every first attempt holds its first-phase locks
		firstRun sync.WaitGroup // every first attempt is over
		retryMu  sync.Mutex
		wg       sync.WaitGroup
	)
	held.Add(len(scripts))
	firstRun.Add(len(scripts))
	run := func(c *client.Conn, script []step, first bool) error {
		if _, err := c.Begin(); err != nil {
			return err
		}
		for i, st := range script {
			if first && i == len(script)-1 {
				held.Done()
				held.Wait()
			}
			if _, err := c.Access(st.obj, st.op, st.arg); err != nil {
				return err
			}
		}
		_, err := c.Commit()
		return err
	}
	errs := make([]error, len(scripts))
	for i, script := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				held.Done()
				firstRun.Done()
				errs[i] = err
				return
			}
			defer c.Close()
			err = run(c, script, true)
			firstRun.Done()
			if errors.Is(err, client.ErrTxAborted) {
				firstRun.Wait()
				retryMu.Lock()
				err = run(c, script, false)
				retryMu.Unlock()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("transaction %d never committed: %v", i+1, err)
		}
	}
	m := s.Metrics()
	if got := m.TopCommits.Load(); got != 3 {
		t.Errorf("TopCommits = %d, want 3", got)
	}
	if got := m.DeadlockAborts.Load(); got < 1 || got > 2 {
		t.Errorf("DeadlockAborts = %d, want 1 or 2", got)
	}
	if got := m.LockTimeouts.Load(); got != 0 {
		t.Errorf("LockTimeouts = %d, want 0", got)
	}
	s.Kill()
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
