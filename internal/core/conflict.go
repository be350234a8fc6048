package core

import "nestedsg/internal/event"

// conflictFrontier decides which conflict(β) edges the engine materializes.
// The paper relates every two conflicting operations of an object that are
// visible to T0 — Θ(n²) pairs for a register written n times — and a literal
// construction compares each newly visible access with the object's whole
// history. Acyclicity and the derived sibling order only depend on the
// transitive closure, so the engine compares an access with its *open
// window* instead: the object's log around the access's own position, out
// to and including the nearest wall on each side, where a wall is an
// operation that conflicts with every operation of its type
// (spec.Spec.ConflictsWithAll: a register write, a queue deq that returned
// an element). A pair with a wall between its ends is implied through the
// wall — or, when that chain leaves the subtree of the pair's least common
// ancestor, the stored edges already close a cycle higher up; THEORY.md
// "The conflict frontier" has the lemma and why verdicts, shortest bad
// prefixes, cycle certificates and the order R are unaffected.
//
// The window extends forwards as well as backwards because an access can be
// admitted late — when the last of its ancestors commits, which in the
// server is the normal case — into a log position in front of operations
// admitted earlier. The pairs compared therefore depend on the order of
// admission, which is why there is one engine (Incremental) and the batch
// entry points feed it rather than scanning on their own.
//
// A type without walls has the whole log as every window: the all-pairs
// scan, through the same code.
type conflictFrontier struct {
	// logs[x] holds the operations of object x admitted so far, ascending
	// by seq — operations(visible(β-prefix, T0))|x in β order.
	logs [][]pendingOp
}

// pendingOp is a visible-or-parked access operation tagged with the raw
// stream position of its REQUEST_COMMIT, which fixes its place in the
// object's log however late it becomes visible, and with whether it is a
// wall.
type pendingOp struct {
	op   event.AccessOp
	seq  int
	wall bool
}

// grow sizes the per-object logs to n objects.
func (cf *conflictFrontier) grow(n int) {
	for len(cf.logs) < n {
		cf.logs = append(cf.logs, nil)
	}
}

// reset empties every log, keeping the backing arrays.
func (cf *conflictFrontier) reset() {
	for i := range cf.logs {
		cf.logs[i] = cf.logs[i][:0]
	}
}

// admit splices a now-visible operation into its object's log and returns
// the log with op's position and the bounds of its open window: the caller
// relates op to log[lo:at] as the later operation and to log[at+1:hi] as the
// earlier one.
//
//sgvet:hotpath
func (cf *conflictFrontier) admit(op pendingOp) (log []pendingOp, lo, at, hi int) {
	log, at = spliceBySeq(cf.logs[op.op.Obj], op)
	cf.logs[op.op.Obj] = log
	for lo = at; lo > 0; {
		lo--
		if log[lo].wall {
			break
		}
	}
	for hi = at + 1; hi < len(log); {
		hi++
		if log[hi-1].wall {
			break
		}
	}
	return log, lo, at, hi
}

// spliceBySeq inserts op into a seq-ascending list and returns the list and
// op's index. Late admissions are commits of deep ancestors releasing old
// operations, so the insertion point is found from the back.
//
//sgvet:hotpath
func spliceBySeq(list []pendingOp, op pendingOp) ([]pendingOp, int) {
	i := len(list)
	for i > 0 && list[i-1].seq > op.seq {
		i--
	}
	list = append(list, pendingOp{})
	copy(list[i+1:], list[i:])
	list[i] = op
	return list, i
}
