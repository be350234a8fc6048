// Package generic implements generic systems (§5.1): the composition of
// transaction programs, generic object automata (Moss locking, undo
// logging, or broken variants) and the generic controller, driven by a
// seeded scheduler that picks uniformly among the enabled actions.
//
// Unlike the serial scheduler, the generic controller runs sibling
// transactions concurrently and can abort transactions that have already
// performed work; recovery is the generic objects' problem. The runner
// restricts the paper's controller in two ways, both of which select a
// subset of its nondeterministic behaviors (so every trace produced is a
// generic behavior):
//
//   - orphans are frozen by default: once a transaction aborts, no
//     descendant takes further steps (Options.AllowOrphans restores the
//     paper's full nondeterminism; orphan management is a separate line of
//     work it cites);
//   - INFORM events for each object are delivered in completion order,
//     which yields the ascending ("leaf-to-root") commit-inform order the
//     lock-visibility notion of §5.3 relies on.
//
// The runner is the Controller plus a seeded scheduler: every event it
// emits steps the controller, whose facts the enumeration reads. Orphan
// freezing, parking, object epochs and the scheduler are runner policy.
//
// Blocking protocols can deadlock; the runner aborts a blocking
// transaction (the timeout analogue, always safe in this model) either at
// quiescence or, with Options.EagerDeadlock, as soon as a waits-for cycle
// appears. Protocols that abort rather than block (object.Aborter, e.g.
// MVTO) have their restarts executed by the runner as well.
//
// A step costs what it changed. An object's answers to ShouldAbort, Blocked
// and Blockers are functions of its automaton's state, which only the
// runner's own calls into it change, and a Create changes no answer about
// another access (object.Generic states both contracts). So the runner
// keeps an epoch per object, bumped on every call into it but Create, and
// each pending access caches its answers with the epoch they were asked at;
// epochs start at 1, so 0 means never asked. A blocked access parks on its
// object with the witness Blocked named: it leaves the enumeration until a
// call into the object that object.Generic's wake clause does not cover,
// and then rejoins it at its creation position and is asked again. An
// INFORM about U wakes the waiters whose witness is tname.None or a
// descendant-or-self of U, a grant only those with no witness, and a
// refused attempt every waiter. The waiters left parked are still blocked,
// as they would answer if asked, so the enumeration and Stats.Blocked are
// those of a runner that woke them all. A transaction idle until a child
// reports to it parks the same way, until the report. The enumeration walks
// the live transactions only, those that can still take a step and are not
// parked, and Stats.Blocked adds a running count of the parked, non-dead
// accesses per enumeration. The failure injector and the eager deadlock
// breaker, whose draws depend on creation order, take the parked
// transactions in, in creation order, when they fire. At quiescence every
// waiter is parked, so the quiescence breaker asks each object once, with
// one Blockers call for all the waiters parked on it. Enabled actions are
// value structs in a reused slice, and per-object automata and
// per-transaction states are dense slices indexed by the interned names.
// The enumeration order and random-number consumption are exactly those of
// the original closure-based loop, so seeds reproduce the same traces.
package generic

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/object"
	"nestedsg/internal/program"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

// Options configures a run.
type Options struct {
	// Seed drives every scheduling decision; equal seeds and inputs give
	// identical traces.
	Seed int64
	// Protocol chooses the generic object automaton.
	Protocol object.Protocol
	// AbortProb is a per-step probability of spontaneously aborting one
	// live transaction (crash/failure injection).
	AbortProb float64
	// MaxAborts bounds spontaneous aborts; 0 means none are injected even
	// if AbortProb is set.
	MaxAborts int
	// MaxSteps bounds the scheduler loop; 0 selects a generous default
	// proportional to the program size.
	MaxSteps int
	// AuditObjects asks every object implementing object.Auditor to check
	// its invariants after each step; a failure aborts the run with an
	// error. Used by the property tests (it is O(state) per step).
	AuditObjects bool
	// EagerDeadlock turns on periodic waits-for cycle detection between
	// top-level transactions: every 32 steps the runner builds the
	// waits-for graph from the objects' Blockers and aborts one member of
	// each cycle immediately, instead of waiting for global quiescence.
	// Quiescence-based resolution remains as the safety net (it also
	// catches intra-transaction cycles the top-level graph cannot see).
	// This is the deadlock-policy ablation of experiment E9.
	EagerDeadlock bool
	// AllowOrphans lets descendants of aborted transactions keep running
	// (the paper's generic controller permits this; orphan management is
	// the separate line of work it cites as [8]). Orphan activity is never
	// visible to T0, so serial correctness for T0 must still hold — the
	// orphan property tests exercise exactly that. The default freezes
	// orphans, which restricts the controller's nondeterminism.
	AllowOrphans bool
}

// Stats summarizes a run for the benchmark harness.
type Stats struct {
	// Steps is the number of scheduler decisions taken.
	Steps int
	// Events is the number of trace events emitted.
	Events int
	// Commits and Aborts count completion events.
	Commits, Aborts int
	// SpontaneousAborts counts failure-injected aborts; DeadlockVictims
	// counts aborts issued to break deadlocks; ProtocolAborts counts
	// restarts demanded by the protocol itself (object.Aborter).
	SpontaneousAborts, DeadlockVictims, ProtocolAborts int
	// Accesses counts access REQUEST_COMMITs granted; Blocked counts, per
	// enumeration, the pending accesses waiting for locks or commutativity
	// (the parked ones, whether or not their object had to be asked
	// again), plus refused REQUEST_COMMIT attempts.
	Accesses, Blocked int
}

// txState is a transaction's program and the runner's policy about it;
// what it has done, and what its subtree touched, the Controller keeps.
type txState struct {
	id   tname.TxID
	node *program.Node
	// dead marks descendants of aborted transactions: frozen.
	dead bool
	exec *program.Exec
	// child and sibling thread the transactions this one has requested
	// into a list, the latest first: an abort freezes the subtree they
	// span.
	child, sibling *txState
	// pendingRequests are children the program has requested but whose
	// REQUEST_CREATE the controller has not yet emitted.
	pendingRequests []*program.Node

	// A pending access's object answers: abort (ShouldAbort), and blocked
	// with its witness (Blocked), as of object epoch askedAt, blockers
	// (Blockers) as of blockersAt. Epochs start at 1, so 0 means never
	// asked. A parked access keeps its witness while the epoch moves on.
	askedAt, blockersAt uint64
	abort, blocked      bool
	witness             tname.TxID
	blockers            []tname.TxID
	// round marks the breaker round that last took this transaction: as a
	// candidate victim (breakDeadlock), or as node wfNode of the waits-for
	// graph (breakWaitsForCycle).
	round  uint64
	wfNode int32
	// seq is the transaction's position in creation order, the order of
	// live.
	seq int32
	// parked marks a transaction waiting out of live: a blocked access
	// until a call into its object that can unblock it, an idle one until
	// a child reports to it.
	parked bool
}

// blockerUnion is an object's answer to Blockers(ids) at epoch at. Blockers
// is a function of the object's state, which only a call that moves the
// epoch changes, so the answer holds while the epoch and the waiters stay.
type blockerUnion struct {
	at  uint64
	ids []tname.TxID
	blk []tname.TxID
}

// actKind discriminates the enabled-action structs.
type actKind uint8

const (
	akCreate actKind = iota
	akProtocolAbort
	akRespond
	akIssueRequest
	akRequestCommit
	akCommit
	akReport
	akInform
)

// act is one enabled controller/object/transaction step, as data: the
// scheduler enumerates these into a reused slice instead of allocating a
// closure per enabled action per step.
type act struct {
	kind actKind
	ts   *txState    // nil for akInform
	x    tname.ObjID // akInform only
}

// Runner holds the mutable state of one generic-system execution. Objects
// and transaction states are dense slices indexed by the interned names;
// the optional per-object interfaces (Aborter, Auditor) are resolved once
// at startup rather than type-asserted per step.
type Runner struct {
	tr       *tname.Tree
	opts     Options
	rng      *rand.Rand
	ctl      *Controller // steps through every emitted event
	objects  []object.Generic
	aborters []object.Aborter
	auditors []object.Auditor
	// informQ holds, per object, the completed transactions to inform it
	// of, in order; the controller knows which completion each had.
	informQ [][]tname.TxID
	// epochs counts, per object, the runner's calls into its automaton
	// other than Create, from 1: answers cached at an older epoch are
	// stale.
	epochs []uint64

	txs   []*txState   // indexed by TxID; nil for unknown names
	order []tname.TxID // stable enumeration order of known transactions
	// live is order without the transactions that can take no more steps
	// (dead ones, and completed ones that have reported) and without the
	// parked ones; the enumeration compacts it as it walks.
	live []*txState
	// parked holds, per object, the blocked accesses parked on it; entries
	// whose parked flag is clear have left.
	// woken are the transactions unparked since the last enumeration,
	// which merges them back into live. nParked counts the parked
	// accesses.
	parked  [][]*txState
	woken   []*txState
	spare   []*txState // live's other buffer, for the merge
	nParked int

	acts   []act         // reused action buffer
	xs     []tname.ObjID // reused buffer of a completion's objects
	cands  []tname.TxID  // reused victim buffer
	others []*txState    // reused buffer of waiters
	ids    []tname.TxID  // reused buffer of one object's waiters
	one    [1]tname.TxID // a single access, for a per-waiter Blockers call
	rounds uint64        // breaker calls, the txState.round stamp
	// unions holds, per object, the Blockers union breakDeadlock asked it
	// for last.
	unions []blockerUnion

	trace event.Behavior
	stats Stats
}

// tx returns the state of id, or nil if the runner has not seen it.
func (r *Runner) tx(id tname.TxID) *txState {
	if int(id) >= len(r.txs) {
		return nil
	}
	return r.txs[id]
}

// putTx registers a fresh transaction state.
func (r *Runner) putTx(ts *txState) {
	for int(ts.id) >= len(r.txs) {
		r.txs = append(r.txs, nil)
	}
	if r.txs[ts.id] != nil {
		panic(fmt.Sprintf("generic: duplicate child %s", r.tr.Name(ts.id)))
	}
	r.txs[ts.id] = ts
	ts.seq = int32(len(r.order))
	r.order = append(r.order, ts.id)
	r.live = append(r.live, ts)
}

// Run executes the program of T0 under the generic controller and returns
// the recorded behavior (serial actions plus informs).
func Run(tr *tname.Tree, root *program.Node, opts Options) (event.Behavior, Stats, error) {
	return RunContext(context.Background(), tr, root, opts)
}

// RunContext is Run with cancellation: the scheduler checks ctx between
// steps and stops with an error wrapping ctx's cause (context.Canceled or
// context.DeadlineExceeded), so callers can distinguish a cancelled run
// from a scheduling failure with errors.Is. The trace accumulated so far is
// discarded — a cancelled run has no meaningful behavior to certify.
func RunContext(ctx context.Context, tr *tname.Tree, root *program.Node, opts Options) (event.Behavior, Stats, error) {
	if err := program.Validate(root); err != nil {
		return nil, Stats{}, err
	}
	if opts.Protocol == nil {
		return nil, Stats{}, fmt.Errorf("generic: Options.Protocol is required")
	}
	numObj, nodes := tr.NumObjects(), program.CountNodes(root)
	r := &Runner{
		tr:       tr,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		ctl:      NewController(tr, nodes), // each program node is named at most once
		objects:  make([]object.Generic, numObj),
		aborters: make([]object.Aborter, numObj),
		auditors: make([]object.Auditor, numObj),
		informQ:  make([][]tname.TxID, numObj),
		epochs:   make([]uint64, numObj),
		parked:   make([][]*txState, numObj),
		unions:   make([]blockerUnion, numObj),
	}
	for x := tname.ObjID(0); int(x) < numObj; x++ {
		r.epochs[x] = 1
		g := opts.Protocol.New(tr, x)
		r.objects[x] = g
		if ab, ok := g.(object.Aborter); ok {
			r.aborters[x] = ab
		}
		if au, ok := g.(object.Auditor); ok {
			r.auditors[x] = au
		}
	}

	// CREATE(T0) and start its program.
	rootState := &txState{id: tname.Root, node: root}
	rootState.exec = program.NewExec(root)
	rootState.pendingRequests = rootState.exec.Start()
	r.putTx(rootState)
	r.emit(event.NewEvent(event.Create, tname.Root))

	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200*nodes + 10000
	}

	for ; r.stats.Steps < maxSteps; r.stats.Steps++ {
		if err := ctx.Err(); err != nil {
			return nil, r.stats, fmt.Errorf("generic: run canceled at step %d: %w", r.stats.Steps, err)
		}
		if r.maybeInjectAbort() {
			continue
		}
		if opts.EagerDeadlock && r.stats.Steps%32 == 31 && r.breakWaitsForCycle() {
			continue
		}
		acts := r.enabledActions()
		if len(acts) == 0 {
			if r.breakDeadlock() {
				continue
			}
			// Quiescent.
			r.stats.Events = len(r.trace)
			return r.trace, r.stats, nil
		}
		r.perform(acts[r.rng.Intn(len(acts))])
		if opts.AuditObjects {
			for x, a := range r.auditors {
				if a == nil {
					continue
				}
				if err := a.Audit(); err != nil {
					return nil, r.stats, fmt.Errorf("generic: object %s invariant violated at step %d: %w",
						tr.ObjectLabel(tname.ObjID(x)), r.stats.Steps, err)
				}
			}
		}
	}
	return nil, r.stats, fmt.Errorf("generic: no quiescence after %d steps", maxSteps)
}

// emit steps the controller through e and records it; a refusal is a bug.
func (r *Runner) emit(e event.Event) {
	if err := r.ctl.Step(len(r.trace), e); err != nil {
		panic(fmt.Sprintf("generic: runner emitted an event the controller refuses: %v", err))
	}
	r.trace = append(r.trace, e)
}

// ask brings the pending access ts's cached ShouldAbort and Blocked answers
// up to its object's epoch, asking the object only if it moved.
func (r *Runner) ask(ts *txState) {
	x := ts.node.Obj
	if ts.askedAt == r.epochs[x] {
		return
	}
	ts.askedAt = r.epochs[x]
	ts.abort = r.aborters[x] != nil && r.aborters[x].ShouldAbort(ts.id)
	if ts.abort {
		return
	}
	ts.witness, ts.blocked = r.objects[x].Blocked(ts.id)
}

// blockersOf returns the pending access ts's blockers as of its object's
// epoch, in the object's order. The caller may reorder them.
func (r *Runner) blockersOf(ts *txState) []tname.TxID {
	x := ts.node.Obj
	if ts.blockersAt != r.epochs[x] {
		ts.blockersAt = r.epochs[x]
		r.one[0] = ts.id
		ts.blockers = r.objects[x].Blockers(r.one[:], ts.blockers[:0])
	}
	return ts.blockers
}

// moved records a call into x's automaton: answers cached at the old epoch
// are stale. It wakes the waiters parked on x that the call can unblock,
// by object.Generic's wake clause, and keeps the others parked in their
// order: all of them if all is set; else those that named no witness, and
// for an INFORM about u (u other than tname.None) those whose witness is a
// descendant-or-self of u.
func (r *Runner) moved(x tname.ObjID, all bool, u tname.TxID) {
	r.epochs[x]++
	q, n := r.parked[x], 0
	for _, ts := range q {
		if !ts.parked {
			continue
		}
		if all || ts.witness == tname.None || u != tname.None && r.tr.IsAncestor(u, ts.witness) {
			r.unpark(ts)
			continue
		}
		q[n] = ts
		n++
	}
	clear(q[n:])
	r.parked[x] = q[:n]
}

// park takes ts out of live: a blocked access until a call into its object
// can unblock it (object.Generic's wake clause), an idle transaction until
// a child reports to it.
func (r *Runner) park(ts *txState) {
	ts.parked = true
	if x := ts.node.Obj; ts.node.IsAccess {
		r.nParked++
		r.parked[x] = append(r.parked[x], ts)
	}
}

// leave clears ts's parked flag. An access's entry in its object's parked
// list stays behind.
func (r *Runner) leave(ts *txState) {
	ts.parked = false
	if ts.node.IsAccess {
		r.nParked--
	}
}

// unpark queues the parked ts to rejoin live at the next enumeration.
func (r *Runner) unpark(ts *txState) {
	r.leave(ts)
	r.woken = append(r.woken, ts)
}

func bySeq(a, b *txState) int { return cmp.Compare(a.seq, b.seq) }

// rejoin merges the woken transactions back into live at their creation
// positions. Waiters wake an object at a time, in the order they parked, so
// woken is usually sorted already.
func (r *Runner) rejoin() {
	woken := r.woken
	if len(woken) == 0 {
		return
	}
	if !slices.IsSortedFunc(woken, bySeq) {
		slices.SortFunc(woken, bySeq)
	}
	merged, live := r.spare[:0], r.live
	for len(live) > 0 && len(woken) > 0 {
		if live[0].seq < woken[0].seq {
			merged, live = append(merged, live[0]), live[1:]
		} else {
			merged, woken = append(merged, woken[0]), woken[1:]
		}
	}
	merged = append(append(merged, live...), woken...)
	r.woken = r.woken[:0]
	r.spare, r.live = r.live[:0], merged
}

// waiters returns the pending accesses of live transactions, parked or
// not, in a reused buffer: the ones in live first, in creation order, then
// the others in no order. A caller that needs creation order sorts them
// with bySeq.
func (r *Runner) waiters() []*txState {
	out := r.others[:0]
	for _, ts := range r.live {
		if r.isWaiter(ts) {
			out = append(out, ts)
		}
	}
	for _, ts := range r.woken {
		if r.isWaiter(ts) {
			out = append(out, ts)
		}
	}
	for _, q := range r.parked {
		for _, ts := range q {
			if ts.parked && r.isWaiter(ts) {
				out = append(out, ts)
			}
		}
	}
	r.others = out
	return out
}

// isWaiter reports whether ts is a pending access of a live transaction.
func (r *Runner) isWaiter(ts *txState) bool {
	return !ts.dead && ts.node.IsAccess && r.ctl.Open(ts.id)
}

// idle reports whether the created transaction ts, not an access, has no
// step to take until a child reports to it.
func idle(ts *txState) bool {
	return len(ts.pendingRequests) == 0 && (!ts.exec.Ready() || ts.id == tname.Root)
}

// enabledActions enumerates every enabled action of the composed system
// into the reused buffer, dropping from live the transactions that can take
// no more steps and parking the blocked accesses and the idle
// transactions. The enumeration order is fixed (transactions in creation
// order, then object inform queues), so the scheduler's uniform pick is a
// pure function of the seed. Parked transactions take no step; each
// enumeration counts the parked accesses as blocked.
func (r *Runner) enabledActions() []act {
	r.rejoin()
	acts := r.acts[:0]
	n := 0
	for i, ts := range r.live {
		f := r.ctl.Facts(ts.id)
		if ts.dead || f.Has(simple.Reported) {
			continue
		}
		open := isOpen(f)
		if open {
			if ts.node.IsAccess {
				r.ask(ts)
				if !ts.abort && ts.blocked {
					r.park(ts)
					continue
				}
			} else if idle(ts) {
				r.park(ts)
				continue
			}
		}
		if n != i {
			r.live[n] = ts
		}
		n++
		switch {
		case f&(simple.Created|simple.Aborted) == 0:
			acts = append(acts, act{kind: akCreate, ts: ts})
			// The controller may also abort any requested, uncompleted
			// transaction; that nondeterminism is exercised through
			// failure injection rather than the uniform pick, so that
			// abort rates are a workload parameter.
		case open:
			if ts.node.IsAccess {
				if ts.abort {
					// The protocol demands a restart (e.g. an MVTO write
					// that arrived too late): abort the classical
					// transaction the access belongs to.
					acts = append(acts, act{kind: akProtocolAbort, ts: ts})
				} else {
					acts = append(acts, act{kind: akRespond, ts: ts})
				}
			} else {
				if len(ts.pendingRequests) > 0 {
					acts = append(acts, act{kind: akIssueRequest, ts: ts})
				}
				if ts.exec.Ready() && len(ts.pendingRequests) == 0 && ts.id != tname.Root {
					acts = append(acts, act{kind: akRequestCommit, ts: ts})
				}
			}
		case f&(simple.Committed|simple.Aborted) == 0:
			acts = append(acts, act{kind: akCommit, ts: ts})
		default:
			if p := r.tx(r.tr.Parent(ts.id)); p != nil && !p.dead && r.ctl.Open(p.id) {
				acts = append(acts, act{kind: akReport, ts: ts})
			}
		}
	}
	r.stats.Blocked += r.nParked
	for x := range r.informQ {
		if len(r.informQ[x]) > 0 {
			acts = append(acts, act{kind: akInform, x: tname.ObjID(x)})
		}
	}
	r.live = r.live[:n]
	r.acts = acts
	return acts
}

// perform executes one enabled action.
func (r *Runner) perform(a act) {
	switch a.kind {
	case akCreate:
		r.doCreate(a.ts)
	case akProtocolAbort:
		r.doProtocolAbort(a.ts)
	case akRespond:
		r.doRespond(a.ts)
	case akIssueRequest:
		r.doIssueRequest(a.ts)
	case akRequestCommit:
		r.emit(event.NewValEvent(event.RequestCommit, a.ts.id, a.ts.exec.Value()))
	case akCommit:
		r.doCommit(a.ts)
	case akReport:
		r.doReport(a.ts)
	case akInform:
		r.doInform(a.x)
	}
}

func (r *Runner) doCreate(ts *txState) {
	r.emit(event.NewEvent(event.Create, ts.id))
	if ts.node.IsAccess {
		// Create changes no answer about x's other accesses, so x's epoch
		// stays and its waiters stay parked; the new access has never
		// been asked.
		r.objects[ts.node.Obj].Create(ts.id)
		return
	}
	ts.exec = program.NewExec(ts.node)
	ts.pendingRequests = ts.exec.Start()
}

func (r *Runner) doIssueRequest(ts *txState) {
	child := ts.pendingRequests[0]
	ts.pendingRequests = ts.pendingRequests[1:]
	var childID tname.TxID
	if child.IsAccess {
		childID = r.tr.Access(ts.id, child.Label, child.Obj, child.Op)
	} else {
		childID = r.tr.Child(ts.id, child.Label)
	}
	cs := &txState{id: childID, node: child}
	r.putTx(cs)
	cs.sibling, ts.child = ts.child, cs
	r.emit(event.NewEvent(event.RequestCreate, childID))
}

func (r *Runner) doRespond(ts *txState) {
	x := ts.node.Obj
	v, ok := r.objects[x].TryRequestCommit(ts.id)
	// A refused attempt may change state too (replica's consumes its
	// availability draws), so it wakes every waiter. A grant wakes only
	// those that named no witness.
	r.moved(x, !ok, tname.None)
	if !ok {
		// Blockers said it was enabled; a protocol for which that is
		// not equivalent would simply lose a step.
		r.stats.Blocked++
		return
	}
	r.stats.Accesses++
	r.emit(event.NewValEvent(event.RequestCommit, ts.id, v))
}

func (r *Runner) doCommit(ts *txState) {
	r.stats.Commits++
	r.emit(event.NewEvent(event.Commit, ts.id))
	// When orphans run, a committing orphan's locks/log entries would
	// otherwise be inherited past an ancestor whose abort the objects
	// have already been informed of, and stick there; re-informing the
	// abort right after the commit keeps recovery exact (inform
	// handlers are idempotent).
	var orphanOf tname.TxID = tname.None
	if r.opts.AllowOrphans {
		for u := r.tr.Parent(ts.id); u != tname.None; u = r.tr.Parent(u) {
			if r.ctl.Completion(u) == event.Abort {
				orphanOf = u
				break
			}
		}
	}
	r.xs = r.ctl.Touched(r.xs[:0], ts.id)
	for _, x := range r.xs {
		r.informQ[x] = append(r.informQ[x], ts.id)
		if orphanOf != tname.None {
			r.informQ[x] = append(r.informQ[x], orphanOf)
		}
	}
}

// abortTx aborts a requested-or-created transaction and, unless orphan
// activity is allowed, freezes its subtree.
func (r *Runner) abortTx(ts *txState) {
	if ts.parked {
		r.unpark(ts)
	}
	r.stats.Aborts++
	r.emit(event.NewEvent(event.Abort, ts.id))
	r.xs = r.ctl.Touched(r.xs[:0], ts.id)
	for _, x := range r.xs {
		r.informQ[x] = append(r.informQ[x], ts.id)
	}
	if !r.opts.AllowOrphans {
		r.freeze(ts)
	}
}

// freeze marks every descendant of ts dead. Finished descendants are marked
// too, because breakDeadlock's ancestor walk stops at a dead transaction
// instead of climbing past the abort.
func (r *Runner) freeze(ts *txState) {
	for d := ts.child; d != nil; d = d.sibling {
		d.dead = true
		if d.parked {
			// Dead waiters are not counted as blocked.
			r.leave(d)
		}
		r.freeze(d)
	}
}

// doProtocolAbort aborts the top-level ancestor of an access the protocol
// says can never be granted.
func (r *Runner) doProtocolAbort(ts *txState) {
	top := r.tr.ChildAncestor(tname.Root, ts.id)
	vs := r.tx(top)
	if vs == nil || vs.dead || r.ctl.Completion(top) != event.KindInvalid {
		return
	}
	r.stats.ProtocolAborts++
	r.abortTx(vs)
}

// doReport reports the completed ts to its parent, and its outcome to the
// parent's program.
func (r *Runner) doReport(ts *txState) {
	var oc program.Outcome
	if r.ctl.Completion(ts.id) == event.Commit {
		oc = program.Outcome{Committed: true, Val: r.ctl.wf.Value(ts.id)}
		r.emit(event.NewValEvent(event.ReportCommit, ts.id, oc.Val))
	} else {
		r.emit(event.NewEvent(event.ReportAbort, ts.id))
	}
	parent := r.tx(r.tr.Parent(ts.id))
	idx := parent.exec.RequestIndex(ts.node.Label)
	more := parent.exec.OnReport(idx, oc)
	parent.pendingRequests = append(parent.pendingRequests, more...)
	if parent.parked {
		r.unpark(parent)
	}
}

func (r *Runner) doInform(x tname.ObjID) {
	q := r.informQ[x]
	t := q[0]
	r.informQ[x] = q[1:]
	r.moved(x, false, t)
	if r.ctl.Completion(t) == event.Commit {
		r.objects[x].InformCommit(t)
		r.emit(event.NewInform(event.InformCommit, t, x))
	} else {
		r.objects[x].InformAbort(t)
		r.emit(event.NewInform(event.InformAbort, t, x))
	}
}

// maybeInjectAbort flips the failure-injection coin and aborts one random
// abortable transaction.
func (r *Runner) maybeInjectAbort() bool {
	if r.opts.MaxAborts <= 0 || r.stats.SpontaneousAborts >= r.opts.MaxAborts || r.opts.AbortProb <= 0 {
		return false
	}
	if r.rng.Float64() >= r.opts.AbortProb {
		return false
	}
	// Walk every transaction in creation order: parked ones are
	// candidates too, and the coin rarely lands.
	candidates := r.cands[:0]
	for _, id := range r.order {
		if id != tname.Root && !r.txs[id].dead && r.ctl.Completion(id) == event.KindInvalid {
			candidates = append(candidates, id)
		}
	}
	r.cands = candidates
	if len(candidates) == 0 {
		return false
	}
	r.stats.SpontaneousAborts++
	r.abortTx(r.txs[candidates[r.rng.Intn(len(candidates))]])
	return true
}

// breakDeadlock fires when no action is enabled: if blocked accesses
// remain, abort a transaction whose activity blocks one of them. Every
// waiter is parked then, so it asks each object once for the blockers of
// all the waiters parked on it, and not at all if neither the object's
// epoch nor its waiters moved since it last asked: a victim's abort
// informs only the objects its subtree touched. Which blockers can still
// be aborted it works out anew each time.
//
// A blocker reported by an object may itself have committed already (an
// undo-log entry whose owning access committed while an enclosing
// subtransaction has not); aborting it is impossible, but aborting its
// lowest uncommitted ancestor releases the same resources — the object is
// informed of the abort and discards the whole subtree's locks or log
// entries.
func (r *Runner) breakDeadlock() bool {
	r.rounds++
	victims := r.cands[:0]
	for x, q := range r.parked {
		ids := r.ids[:0]
		for _, ts := range q {
			if ts.parked && r.isWaiter(ts) {
				ids = append(ids, ts.id)
			}
		}
		r.ids = ids
		if len(ids) == 0 {
			continue
		}
		un := &r.unions[x]
		if un.at != r.epochs[x] || !slices.Equal(un.ids, ids) {
			un.at, un.ids = r.epochs[x], append(un.ids[:0], ids...)
			un.blk = r.objects[x].Blockers(ids, un.blk[:0])
		}
		for _, blk := range un.blk {
			for u := blk; u != tname.Root && u != tname.None; u = r.tr.Parent(u) {
				ts := r.tx(u)
				if ts == nil || ts.dead {
					break
				}
				if r.ctl.Completion(u) == event.KindInvalid {
					if ts.round != r.rounds {
						ts.round = r.rounds
						victims = append(victims, u)
					}
					break
				}
			}
		}
	}
	r.cands = victims
	return r.abortVictim(victims)
}

// abortVictim aborts one of victims, if there are any, drawn by the seed
// after sorting them, so the choice does not depend on the order in which
// they were found.
func (r *Runner) abortVictim(victims []tname.TxID) bool {
	if len(victims) == 0 {
		return false
	}
	slices.Sort(victims)
	r.stats.DeadlockVictims++
	r.abortTx(r.txs[victims[r.rng.Intn(len(victims))]])
	return true
}

// breakWaitsForCycle builds the waits-for graph between top-level
// transactions (an edge from the waiter's classical transaction to each
// blocker's) and, if it contains a cycle, aborts one cycle member. It
// returns whether a victim was aborted.
func (r *Runner) breakWaitsForCycle() bool {
	// Number the top-level transactions in first-seen order; a stamp from
	// an earlier round marks a top not yet seen in this one.
	r.rounds++
	var tops []*txState
	node := func(t tname.TxID) int {
		ts := r.tx(t)
		if ts.round != r.rounds {
			ts.round, ts.wfNode = r.rounds, int32(len(tops))
			tops = append(tops, ts)
		}
		return int(ts.wfNode)
	}
	var edges [][2]int
	waiters := r.waiters()
	slices.SortFunc(waiters, bySeq)
	for _, ts := range waiters {
		waiter := r.tr.ChildAncestor(tname.Root, ts.id)
		// Objects may report blockers in any order, and node numbering
		// decides which cycle TopoSort reports: sort so the victim is a
		// pure function of the seed.
		blks := r.blockersOf(ts)
		slices.Sort(blks)
		for _, blk := range blks {
			holder := r.tr.ChildAncestor(tname.Root, blk)
			if holder != waiter {
				edges = append(edges, [2]int{node(waiter), node(holder)})
			}
		}
	}
	if len(edges) == 0 {
		return false
	}
	g := graph.New(len(tops))
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	_, cyc := g.TopoSort()
	if cyc == nil {
		return false
	}
	// Abort one cycle member that is still abortable.
	victims := r.cands[:0]
	for _, n := range cyc {
		if ts := tops[n]; !ts.dead && r.ctl.Completion(ts.id) == event.KindInvalid {
			victims = append(victims, ts.id)
		}
	}
	r.cands = victims
	return r.abortVictim(victims)
}
