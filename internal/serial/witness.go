package serial

import (
	"fmt"
	"sort"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/program"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Witness materializes the conclusion of Theorem 8/19: given a behavior β
// that passed the checker (certificate with sibling order R), it constructs
// an explicit serial behavior γ with γ|T0 = β|T0 — the definition of
// "serially correct for T0" (§2.2.5) — by re-running the transaction
// programs under the serial scheduler with siblings ordered by R.
//
// The construction follows the proof: committed subtrees execute serially,
// children of each parent in R order; transactions that aborted in β are
// aborted by the serial scheduler before being created; report events to T0
// are emitted at exactly their positions in β|T0 (the scheduler may delay
// reports arbitrarily, which is what makes this possible — and precedes(β),
// which R extends, is exactly the constraint that keeps the greedy placement
// feasible).
//
// Witness re-derives every access value from the serial objects S_X and
// every transaction value from the program logic, comparing them against β;
// a mismatch means the certificate does not actually support the behavior
// and is reported as an error. A successful call is therefore an
// end-to-end, per-trace validation of the theorem.
//
// The top-level transactions (children of T0 in root) must be statically
// declared: T0's own request order is taken verbatim from β|T0, so
// dynamically generated top-level children cannot be resolved to programs.
// Deeper levels may use OnOutcome freely.
func Witness(tr *tname.Tree, root *program.Node, b event.Behavior, order *core.SiblingOrder) (event.Behavior, error) {
	serialB := b.Serial()
	w := &witness{
		tr:       tr,
		root:     root,
		order:    order,
		objects:  NewObjects(tr),
		fate:     make(map[tname.TxID]fate),
		values:   make(map[tname.TxID]spec.Value),
		reqSeen:  make(map[tname.TxID]bool),
		programs: make(map[tname.TxID]*program.Node),
	}
	for _, e := range serialB {
		switch e.Kind {
		case event.RequestCreate:
			w.reqSeen[e.Tx] = true
		case event.Commit:
			w.fate[e.Tx] = committed
		case event.Abort:
			w.fate[e.Tx] = abortedFate
		case event.RequestCommit:
			w.values[e.Tx] = e.Val
		default:
			// CREATE and the reports add nothing the fate/value maps need.
		}
	}
	if err := w.replayRoot(serialB.ProjectTx(tr, tname.Root)); err != nil {
		return nil, err
	}
	// The construction guarantees γ|T0 = β|T0; verify it anyway.
	gamma0 := event.Behavior(w.gamma).ProjectTx(tr, tname.Root)
	beta0 := serialB.ProjectTx(tr, tname.Root)
	if !gamma0.Equal(beta0) {
		return nil, fmt.Errorf("serial: witness projection mismatch: γ|T0 has %d events, β|T0 has %d", len(gamma0), len(beta0))
	}
	return w.gamma, nil
}

type fate uint8

const (
	incomplete fate = iota
	committed
	abortedFate
)

type witness struct {
	tr       *tname.Tree
	root     *program.Node
	order    *core.SiblingOrder
	objects  *Objects
	fate     map[tname.TxID]fate
	values   map[tname.TxID]spec.Value
	reqSeen  map[tname.TxID]bool
	programs map[tname.TxID]*program.Node
	gamma    event.Behavior
}

func (w *witness) emit(e event.Event) { w.gamma = append(w.gamma, e) }

// replayRoot walks β|T0, emitting T0's events verbatim and scheduling the
// execution blocks of committed children greedily in R order.
func (w *witness) replayRoot(beta0 event.Behavior) error {
	// Map labels of T0's program children lazily: programs for requested
	// children are resolved when their REQUEST_CREATE is replayed. T0's own
	// logic is not re-run — β|T0 already fixes its request order, and any
	// deterministic automaton consistent with it exists (it is the same
	// program that produced β).
	byLabel := make(map[string]*program.Node)
	collectLabels(w.root, byLabel)

	var (
		requested []tname.TxID // committed children requested, not yet executed
		executed  = make(map[tname.TxID]bool)
	)

	execUpTo := func(limit tname.TxID, inclusive bool) error {
		// Execute all requested, unexecuted committed children ordered
		// before limit (or equal when inclusive), in R order.
		sort.Slice(requested, func(i, j int) bool {
			return w.order.CompareSiblings(requested[i], requested[j])
		})
		for _, c := range requested {
			if executed[c] {
				continue
			}
			if c != limit && !w.order.CompareSiblings(c, limit) {
				continue
			}
			if c == limit && !inclusive {
				continue
			}
			if err := w.execCommitted(c); err != nil {
				return err
			}
			w.emit(event.NewEvent(event.Commit, c))
			executed[c] = true
		}
		return nil
	}

	for _, e := range beta0 {
		switch e.Kind {
		case event.Create:
			// CREATE(T0).
			w.emit(e)
		case event.RequestCreate:
			w.emit(e)
			if w.fate[e.Tx] == committed {
				if _, ok := byLabel[w.tr.Label(e.Tx)]; !ok {
					return fmt.Errorf("serial: no program for top-level transaction %s", w.tr.Name(e.Tx))
				}
				w.programs[e.Tx] = byLabel[w.tr.Label(e.Tx)]
				requested = append(requested, e.Tx)
			}
		case event.ReportCommit:
			if err := execUpTo(e.Tx, true); err != nil {
				return err
			}
			if !executed[e.Tx] {
				return fmt.Errorf("serial: committed child %s not executed before its report", w.tr.Name(e.Tx))
			}
			got := w.values[e.Tx]
			if got != e.Val {
				return fmt.Errorf("serial: report value mismatch for %s", w.tr.Name(e.Tx))
			}
			w.emit(e)
		case event.ReportAbort:
			w.emit(event.NewEvent(event.Abort, e.Tx))
			w.emit(e)
		default:
			return fmt.Errorf("serial: unexpected event kind %v in β|T0", e.Kind)
		}
	}
	// Committed children whose report never made it into β still executed
	// (their effects are visible to T0); the scheduler simply has not
	// reported them yet.
	sort.Slice(requested, func(i, j int) bool {
		return w.order.CompareSiblings(requested[i], requested[j])
	})
	for _, c := range requested {
		if !executed[c] {
			if err := w.execCommitted(c); err != nil {
				return err
			}
			w.emit(event.NewEvent(event.Commit, c))
			executed[c] = true
		}
	}
	return nil
}

// execCommitted runs the execution block of a committed transaction:
// CREATE, the serial execution of its program with children in R order, and
// its REQUEST_COMMIT. The COMMIT/REPORT events are the caller's business
// (their placement differs between T0's children and interior children).
// It verifies the resulting value against β.
func (w *witness) execCommitted(tx tname.TxID) error {
	node := w.programs[tx]
	if node == nil {
		return fmt.Errorf("serial: no program recorded for %s", w.tr.Name(tx))
	}
	w.emit(event.NewEvent(event.Create, tx))

	var v spec.Value
	if node.IsAccess {
		v = w.objects.Perform(node.Obj, node.Op)
	} else {
		var err error
		v, err = w.execComposite(tx, node)
		if err != nil {
			return err
		}
	}
	want, ok := w.values[tx]
	if !ok {
		return fmt.Errorf("serial: %s committed in β without a REQUEST_COMMIT value", w.tr.Name(tx))
	}
	if v != want {
		return fmt.Errorf("serial: witness value mismatch for %s: serial execution yields %s, β recorded %s",
			w.tr.Name(tx), v, want)
	}
	w.emit(event.NewValEvent(event.RequestCommit, tx, v))
	return nil
}

// execComposite drives the program logic of committed transaction tx,
// executing its children serially in R order and forcing the abort
// decisions recorded in β.
func (w *witness) execComposite(tx tname.TxID, node *program.Node) (spec.Value, error) {
	exec := program.NewExec(node)
	unfinished := make(map[tname.TxID]*program.Node)

	admit := func(batch []*program.Node) error {
		for _, c := range batch {
			childTx, err := w.intern(tx, c)
			if err != nil {
				return err
			}
			if !w.reqSeen[childTx] {
				return fmt.Errorf("serial: replay of %s requested %s, which never occurred in β",
					w.tr.Name(tx), w.tr.Name(childTx))
			}
			w.emit(event.NewEvent(event.RequestCreate, childTx))
			unfinished[childTx] = c
		}
		return nil
	}
	if err := admit(exec.Start()); err != nil {
		return spec.Nil, err
	}

	for len(unfinished) > 0 {
		// Pick the minimal unfinished child in the total sibling order. R
		// extends all of precedes(β) — SG(β) stores only a generating set
		// of it, whose closure R respects (THEORY.md, frontier lemma) —
		// so any child requested later is ordered after some currently
		// unfinished one and the greedy choice is safe (see package
		// comment).
		var next tname.TxID = tname.None
		for c := range unfinished {
			if next == tname.None || w.order.CompareSiblings(c, next) {
				next = c
			}
		}
		childNode := unfinished[next]
		delete(unfinished, next)

		var oc program.Outcome
		switch w.fate[next] {
		case committed:
			w.programs[next] = childNode
			if err := w.execCommitted(next); err != nil {
				return spec.Nil, err
			}
			w.emit(event.NewEvent(event.Commit, next))
			w.emit(event.NewValEvent(event.ReportCommit, next, w.values[next]))
			oc = program.Outcome{Committed: true, Val: w.values[next]}
		case abortedFate:
			w.emit(event.NewEvent(event.Abort, next))
			w.emit(event.NewEvent(event.ReportAbort, next))
			oc = program.Outcome{Committed: false}
		default:
			// A child of a committed parent must have completed in β
			// (well-formedness: the parent requested commit only after all
			// children reported).
			return spec.Nil, fmt.Errorf("serial: child %s of committed %s has no completion in β",
				w.tr.Name(next), w.tr.Name(tx))
		}
		idx := exec.RequestIndex(childNode.Label)
		if err := admit(exec.OnReport(idx, oc)); err != nil {
			return spec.Nil, err
		}
	}
	if !exec.Ready() {
		return spec.Nil, fmt.Errorf("serial: program of %s not ready after replay", w.tr.Name(tx))
	}
	return exec.Value(), nil
}

func (w *witness) intern(parent tname.TxID, n *program.Node) (tname.TxID, error) {
	if n.IsAccess {
		return w.tr.Access(parent, n.Label, n.Obj, n.Op), nil
	}
	return w.tr.Child(parent, n.Label), nil
}

// collectLabels indexes the static children of the root program by label.
func collectLabels(root *program.Node, out map[string]*program.Node) {
	for _, c := range root.Children {
		out[c.Label] = c
	}
}
