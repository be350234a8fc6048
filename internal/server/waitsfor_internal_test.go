package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

var (
	read  = spec.Op{Kind: spec.OpRead, Arg: spec.Nil}
	write = spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)}
)

// waitRig drives a server's automata and wait table by hand, as
// session.waitGrant and Server.inform do, with no sessions behind it: nothing
// re-tries an access or resolves a knot behind a test's back.
type waitRig struct {
	t     *testing.T
	s     *Server
	label int
}

func newWaitRig(t *testing.T, backend string) *waitRig {
	s := New(Options{Backend: backend, Objects: []string{"x", "y", "z"}, LockTimeout: noTimeout})
	t.Cleanup(s.Kill)
	return &waitRig{t: t, s: s}
}

// tx defines a transaction under parent: tname.Root for a top.
func (r *waitRig) tx(parent tname.TxID) tname.TxID {
	r.label++
	return r.s.internTx(parent, fmt.Sprintf("t%d", r.label), tname.NoObj, spec.Op{})
}

func (r *waitRig) obj(name string) *sharedObject {
	r.t.Helper()
	o, err := r.s.resolveObject(name)
	if err != nil {
		r.t.Fatal(err)
	}
	return o
}

// try creates an access of parent to the object and asks for its grant. A
// granted access commits at once, and its lock passes to parent; a refused
// one enters the wait with its witness, as waitGrant's refusal does, and is
// returned.
func (r *waitRig) try(parent tname.TxID, name string, op spec.Op) *waitEntry {
	s, o := r.s, r.obj(name)
	r.label++
	acc := s.internTx(parent, fmt.Sprintf("a%d", r.label), o.id, op)
	s.mu.RLock()
	top := s.tr.ChildAncestor(tname.Root, acc)
	s.mu.RUnlock()
	var e *waitEntry
	s.withObj(o, func() { //sgvet:holds o.mu, s.mu:r
		o.g.Create(acc)
		if _, ok := o.g.TryRequestCommit(acc); ok {
			return
		}
		e = &waitEntry{access: acc, top: top, obj: o, wake: make(chan struct{}, 1)}
		s.askWitness(e)
		s.enterWait(e)
	})
	if e == nil {
		r.inform(event.InformCommit, acc, name)
	}
	return e
}

func (r *waitRig) hold(parent tname.TxID, name string, op spec.Op) {
	r.t.Helper()
	if r.try(parent, name, op) != nil {
		r.t.Fatalf("access of %v to %s refused, want granted", parent, name)
	}
}

func (r *waitRig) block(parent tname.TxID, name string, op spec.Op) *waitEntry {
	r.t.Helper()
	e := r.try(parent, name, op)
	if e == nil {
		r.t.Fatalf("access of %v to %s granted, want refused", parent, name)
	}
	return e
}

// inform applies an INFORM of t at each named object, waking its waiters.
func (r *waitRig) inform(kind event.Kind, t tname.TxID, names ...string) {
	for _, name := range names {
		o := r.obj(name)
		r.s.withObj(o, func() { //sgvet:holds o.mu, r.s.mu:r
			if kind == event.InformCommit {
				o.g.InformCommit(t)
			} else {
				o.g.InformAbort(t)
			}
			r.s.wakeWaiters(o, t)
		})
	}
}

// signalled reports, and consumes, a pending wake-up of e.
func signalled(e *waitEntry) bool {
	select {
	case <-e.wake:
		return true
	default:
		return false
	}
}

// scan runs the deadlock scan of scanner with every victim mark and wake-up
// cleared first, and returns the waiter it names: scanner itself when it
// self-selects, the one it marks and wakes, or nil.
func (r *waitRig) scan(waiters []*waitEntry, scanner *waitEntry) *waitEntry {
	r.t.Helper()
	for _, w := range waiters {
		w.victim.Store(false)
		signalled(w)
	}
	var named *waitEntry
	if r.s.breakDeadlock(scanner) {
		named = scanner
	}
	for _, w := range waiters {
		if !w.victim.Load() {
			continue
		}
		if named != nil {
			r.t.Fatalf("scan by %v named %v and %v; a cycle needs one victim", scanner.top, named.top, w.top)
		}
		if !signalled(w) {
			r.t.Fatalf("scan by %v marked %v but did not wake it", scanner.top, w.top)
		}
		named = w
	}
	return named
}

// The overlapping-cycles knot the tests below build: two waits-for cycles
// sharing a transaction, T1⇄T2 and T2⇄T3 (Moss read/update locks; reads
// share, writes exclude):
//
//	T1 holds read x, blocks on read y  → edge T1→T2
//	T3 holds read x, blocks on read z  → edge T3→T2
//	T2 holds write y and write z, blocks on write x → edges T2→T1, T2→T3
//
// T2's witness at x is T1, the first read-lockholder, so the witness chain
// holds the cycle T1⇄T2, and T3's chain leads into it. One victim breaks
// the knot: T2, which lies on both cycles. The rule the chain replaced took
// the strongly connected component's largest top, T3, and left T1⇄T2 for a
// second victim.
func buildKnot(r *waitRig) []*waitEntry {
	t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
	r.hold(t1, "x", read)
	r.hold(t2, "y", write)
	r.hold(t2, "z", write)
	r.hold(t3, "x", read)
	return []*waitEntry{r.block(t1, "y", read), r.block(t3, "z", read), r.block(t2, "x", write)}
}

// TestVictimChoiceOverlappingCycles checks each waiter's scan of the knot:
// T1's marks and wakes T2, T2's selects itself, T3's names nobody. Once T2
// aborts, T1 and T3 are both granted: no second victim is needed.
func TestVictimChoiceOverlappingCycles(t *testing.T) {
	r := newWaitRig(t, "moss")
	waiters := buildKnot(r)
	w1, w3, w2 := waiters[0], waiters[1], waiters[2]
	for _, c := range []struct {
		scanner, want *waitEntry
	}{{w1, w2}, {w2, w2}, {w3, nil}} {
		if got := r.scan(waiters, c.scanner); got != c.want {
			t.Errorf("scan by %v named %v, want %v", c.scanner.top, topOf(got), topOf(c.want))
		}
	}

	r.s.leaveWait(w2)
	r.inform(event.InformAbort, w2.top, "x", "y", "z")
	for _, w := range []*waitEntry{w1, w3} {
		if !signalled(w) {
			t.Errorf("%v's abort did not wake %v", w2.top, w.top)
		}
		r.s.withObj(w.obj, func() { //sgvet:holds w.obj.mu, r.s.mu:r
			if _, ok := w.obj.g.TryRequestCommit(w.access); !ok {
				t.Errorf("%v still refused after %v aborted", w.top, w2.top)
			}
			r.s.exitWait(w)
		})
	}
	if n := len(r.s.waits.entries()); n != 0 {
		t.Fatalf("%d entries left in the wait table", n)
	}
}

// topOf names a waiter in a failure message.
func topOf(e *waitEntry) tname.TxID {
	if e == nil {
		return tname.None
	}
	return e.top
}

// TestWitnessChain builds one wait-for shape per row and checks whom each
// waiter's scan names: victims[i] is the index of the waiter the scan by
// waiters[i] names (itself when it self-selects), or -1 for nobody.
func TestWitnessChain(t *testing.T) {
	for _, row := range []struct {
		name    string
		backend string
		build   func(r *waitRig) []*waitEntry
		victims []int
	}{
		{"2-cycle", "moss", func(r *waitRig) []*waitEntry {
			t1, t2 := r.tx(tname.Root), r.tx(tname.Root)
			r.hold(t1, "x", write)
			r.hold(t2, "y", write)
			return []*waitEntry{r.block(t1, "y", write), r.block(t2, "x", write)}
		}, []int{1, 1}},
		{"3-cycle", "moss", func(r *waitRig) []*waitEntry {
			t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
			r.hold(t1, "x", write)
			r.hold(t2, "y", write)
			r.hold(t3, "z", write)
			return []*waitEntry{r.block(t1, "y", read), r.block(t2, "z", read), r.block(t3, "x", read)}
		}, []int{2, 2, 2}},
		{"chain ending at a running top", "moss", func(r *waitRig) []*waitEntry {
			t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
			r.hold(t1, "x", write)
			r.hold(t2, "y", write)
			r.hold(t3, "z", write)
			return []*waitEntry{r.block(t1, "y", write), r.block(t2, "z", write)}
		}, []int{-1, -1}},
		{"overlapping cycles", "moss", buildKnot, []int{2, -1, 2}},
		{"witness moved by a sub-commit", "moss", func(r *waitRig) []*waitEntry {
			t1, t2 := r.tx(tname.Root), r.tx(tname.Root)
			c := r.tx(t2)
			r.hold(c, "y", write)
			r.hold(t1, "x", write)
			w1 := r.block(t1, "y", read)
			if w1.witness != c || !w1.exact {
				r.t.Errorf("witness %v (exact %v), want the lockholder %v", w1.witness, w1.exact, c)
			}
			r.inform(event.InformCommit, c, "y") // the lock passes to t2
			if !signalled(w1) || w1.witness != t2 || tname.TxID(w1.witnessTop.Load()) != t2 {
				r.t.Errorf("after the sub-commit: witness %v, top %v; want %v, woken", w1.witness, w1.witnessTop.Load(), t2)
			}
			return []*waitEntry{w1, r.block(t2, "x", write)}
		}, []int{1, 1}},
		{"mvto read whose witness is a writer", "mvto", func(r *waitRig) []*waitEntry {
			t1, t2 := r.tx(tname.Root), r.tx(tname.Root)
			r.hold(t1, "x", write)
			w2 := r.block(t2, "x", read)
			if w2.exact || tname.TxID(w2.witnessTop.Load()) != t1 {
				r.t.Errorf("witness %v (exact %v, top %v), want an inexact one under %v", w2.witness, w2.exact, w2.witnessTop.Load(), t1)
			}
			return []*waitEntry{w2}
		}, []int{-1}},
		{"undolog over a register", "undolog", func(r *waitRig) []*waitEntry {
			t1, t2 := r.tx(tname.Root), r.tx(tname.Root)
			r.hold(t1, "x", write)
			r.hold(t2, "y", write)
			w1, w2 := r.block(t1, "y", write), r.block(t2, "x", write)
			if !w1.exact || !w2.exact {
				r.t.Errorf("an undo log over a register names an exact witness")
			}
			return []*waitEntry{w1, w2}
		}, []int{1, 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newWaitRig(t, row.backend)
			waiters := row.build(r)
			for i, scanner := range waiters {
				var want *waitEntry
				if v := row.victims[i]; v >= 0 {
					want = waiters[v]
				}
				if got := r.scan(waiters, scanner); got != want {
					t.Errorf("scan by %v named %v, want %v", scanner.top, topOf(got), topOf(want))
				}
			}
		})
	}
	t.Run("random waits match the reference", func(t *testing.T) {
		cycles := 0
		for seed := int64(1); seed <= 300; seed++ {
			cycles += randomWaits(t, rand.New(rand.NewSource(seed)))
		}
		if cycles == 0 {
			t.Fatal("no seed made a cycle: the lockstep checked nothing")
		}
		t.Logf("%d scans followed a cycle", cycles)
	})
}

// TestLatentWitnessCycle pins a deadlock the witness chain sees only late:
// one whose cycle closes through a blocker other than a waiter's witness.
//
//	T3 holds read x, T1 holds read x, T2 holds write y
//	T1 blocks on write y → witness T2
//	T2 blocks on write x → witness T3, the first read-lockholder
//
// T1⇄T2 is a cycle of the full waits-for graph, but T2's chain leads to the
// running T3, so neither scan names anybody. T3's commit at x wakes T2 and
// re-names its witness T1, and both scans then name T2, the cycle's
// youngest top: the waiter the INFORM wakes finds the cycle on its re-try,
// with no lock timeout.
func TestLatentWitnessCycle(t *testing.T) {
	r := newWaitRig(t, "moss")
	t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
	r.hold(t3, "x", read)
	r.hold(t1, "x", read)
	r.hold(t2, "y", write)
	w1, w2 := r.block(t1, "y", write), r.block(t2, "x", write)
	waiters := []*waitEntry{w1, w2}
	if w2.witness != t3 {
		t.Fatalf("%v's witness %v, want the first read-lockholder %v", t2, w2.witness, t3)
	}
	for _, w := range waiters {
		if got := r.scan(waiters, w); got != nil {
			t.Errorf("before %v commits: scan by %v named %v, want nobody", t3, w.top, got.top)
		}
	}

	r.inform(event.InformCommit, t3, "x")
	if !signalled(w2) || w2.witness != t1 || tname.TxID(w2.witnessTop.Load()) != t1 {
		t.Fatalf("after %v commits: %v's witness %v (top %v), want %v, woken", t3, t2, w2.witness, w2.witnessTop.Load(), t1)
	}
	for _, w := range waiters {
		if got := r.scan(waiters, w); got != w2 {
			t.Errorf("after %v commits: scan by %v named %v, want %v", t3, w.top, topOf(got), t2)
		}
	}
}

// randomWaits runs two to five tops over three Moss registers, each
// accessing objects at random, now and then inside a subtransaction that
// sub-commits, until every top waits or the steps run out. Then it holds
// every waiter's chain to the reference: a cycle the chain follows lies in
// the waiter's strongly connected component of the full waits-for graph,
// and the scan names the cycle's youngest top, or nobody when there is no
// cycle. It returns how many scans found a cycle.
func randomWaits(t *testing.T, rnd *rand.Rand) int {
	r := newWaitRig(t, "moss")
	names := []string{"x", "y", "z"}
	type top struct {
		id, cur tname.TxID
		touched []string // by cur, when cur is a subtransaction
		waiting bool
	}
	tops := make([]*top, 2+rnd.Intn(4))
	for i := range tops {
		id := r.tx(tname.Root)
		tops[i] = &top{id: id, cur: id}
	}
	for step := 0; step < 30; step++ {
		tp := tops[rnd.Intn(len(tops))]
		if tp.waiting {
			continue
		}
		switch roll := rnd.Intn(10); {
		case roll < 2 && tp.cur != tp.id:
			r.inform(event.InformCommit, tp.cur, tp.touched...)
			tp.cur, tp.touched = tp.id, nil
		case roll < 2:
			tp.cur = r.tx(tp.id)
		default:
			op := read
			if rnd.Intn(2) == 0 {
				op = write
			}
			name := names[rnd.Intn(len(names))]
			tp.waiting = r.try(tp.cur, name, op) != nil
			if !tp.waiting && tp.cur != tp.id && !slices.Contains(tp.touched, name) {
				tp.touched = append(tp.touched, name)
			}
		}
	}
	entries := r.s.waits.entries()
	var search graph.Search
	comp, _ := search.Components(r.s.waitsFor(entries))
	found := 0
	for i, me := range entries {
		cycle := chainCycle(entries, me)
		want := -1
		for _, tp := range cycle {
			j, _ := slices.BinarySearchFunc(entries, tp, byTop)
			if comp[j] != comp[i] {
				t.Fatalf("the chain from %v closes a cycle %v through %v, outside its strongly connected component", me.top, cycle, tp)
			}
			want = max(want, j)
		}
		var wantE *waitEntry
		if want >= 0 {
			found++
			wantE = entries[want]
		}
		if got := r.scan(entries, me); got != wantE {
			t.Fatalf("scan by %v named %v; its chain's cycle %v names %v", me.top, topOf(got), cycle, topOf(wantE))
		}
	}
	return found
}

// chainCycle follows the witness tops from me through the table and returns
// the cycle back to me, or nil when the chain ends or enters a cycle that
// does not pass through me.
func chainCycle(entries []*waitEntry, me *waitEntry) []tname.TxID {
	cycle := []tname.TxID{me.top}
	for next := tname.TxID(me.witnessTop.Load()); next != me.top; {
		i, ok := slices.BinarySearchFunc(entries, next, byTop)
		if !ok || slices.Contains(cycle, next) {
			return nil
		}
		cycle = append(cycle, next)
		next = tname.TxID(entries[i].witnessTop.Load())
	}
	return cycle
}

// TestInformWakesWitnessWaiters checks whom an INFORM wakes. A Moss waiter
// is woken only by an INFORM about an ancestor-or-self of its witness, and
// then names a current witness; an mvto waiter, whose witness is not exact,
// is woken by every INFORM on its object, which is how a read that the
// protocol must restart learns it (DESIGN.md §8).
func TestInformWakesWitnessWaiters(t *testing.T) {
	t.Run("an unrelated INFORM wakes no Moss waiter", func(t *testing.T) {
		r := newWaitRig(t, "moss")
		t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
		r.hold(t1, "x", read)
		r.hold(t2, "x", read)
		w := r.block(t3, "x", write)
		if w.witness != t1 {
			t.Fatalf("witness %v, want the first read-lockholder %v", w.witness, t1)
		}
		r.inform(event.InformAbort, t2, "x")
		if signalled(w) {
			t.Errorf("%v's abort woke a waiter whose witness is %v", t2, t1)
		}
		r.inform(event.InformAbort, t1, "x")
		if woke := signalled(w); !woke || w.witnessTop.Load() != int32(tname.None) {
			t.Errorf("the witness's abort: woken %v, witness top %v; want woken, no witness", woke, w.witnessTop.Load())
		}
	})
	t.Run("an INFORM about the witness's ancestor re-names it", func(t *testing.T) {
		r := newWaitRig(t, "moss")
		t1, t2 := r.tx(tname.Root), r.tx(tname.Root)
		r.hold(t1, "x", write)
		c := r.tx(t1)
		d := r.tx(c)
		r.hold(d, "x", write)
		w := r.block(t2, "x", read)
		if w.witness != d {
			t.Fatalf("witness %v, want the least write-lockholder %v", w.witness, d)
		}
		r.inform(event.InformAbort, c, "x")
		if !signalled(w) {
			t.Errorf("the abort of %v, an ancestor of the witness %v, did not wake the waiter", c, d)
		}
		if w.witness != t1 || !w.exact {
			t.Errorf("witness %v (exact %v) after the abort, want %v", w.witness, w.exact, t1)
		}
	})
	t.Run("every INFORM wakes an mvto waiter", func(t *testing.T) {
		r := newWaitRig(t, "mvto")
		t1, t2, t3 := r.tx(tname.Root), r.tx(tname.Root), r.tx(tname.Root)
		r.hold(t1, "x", write)
		w := r.block(t2, "x", read)
		r.inform(event.InformAbort, t3, "x")
		if !signalled(w) {
			t.Errorf("an INFORM on x left an mvto waiter asleep")
		}
	})
}

// TestOverlappingCyclesAllCommit runs the knot through real sessions: it
// must dissolve by itself — detection is immediate, so the three sessions
// never all stay blocked — with every transaction committing in the end,
// at most two victims (one, T2, breaks both cycles; see
// TestVictimChoiceOverlappingCycles)
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
