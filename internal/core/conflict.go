package core

import (
	"slices"

	"nestedsg/internal/tname"
)

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
// Two read-only operations commute (neither changes the state), so a
// read-only access is compared only with the window's other entries: those
// are kept a second time, in a list of their own, and a read costs the
// updates of its window rather than every read since the last wall.
//
// A type without walls has the whole log as every window: the all-pairs
// scan, through the same code.
type conflictFrontier struct {
	// logs[x] holds the operations of object x admitted so far, ascending
	// by seq — operations(visible(β-prefix, T0))|x in β order. upd[x] is its
	// subsequence of operations that are not read-only, walls included.
	logs, upd [][]pendingOp

	// logArena and updArena back the logs and the non-read-only lists of
	// a batch construction, which reserve presizes.
	logArena, updArena []pendingOp
}

// pendingOp is a visible-or-parked access operation. It holds no pointer:
// the operation and its argument are the access's name in the tree, and
// val indexes the engine's store of returned values (Incremental.opVal
// rebuilds the OpVal for a comparison). seq is the raw stream position of
// the REQUEST_COMMIT, which fixes the operation's place in the object's log
// however late it becomes visible; it stays 64-bit because events outnumber
// names. wall marks an operation that conflicts with all (ConflictsWithAll),
// ro one that is read-only and not a wall.
type pendingOp struct {
	seq      int
	tx       tname.TxID
	obj      tname.ObjID
	val      int32
	wall, ro bool
}

// grow sizes the per-object logs to n objects, in one step.
func (cf *conflictFrontier) grow(n int) {
	if k := n - len(cf.logs); k > 0 {
		cf.logs = append(cf.logs, make([][]pendingOp, k)...)
		cf.upd = append(cf.upd, make([][]pendingOp, k)...)
	}
}

// reset empties every log, keeping the backing arrays.
func (cf *conflictFrontier) reset() {
	for i := range cf.logs {
		cf.logs[i] = cf.logs[i][:0]
		cf.upd[i] = cf.upd[i][:0]
	}
}

// reserve carves every empty log out of one array and every
// non-read-only list out of another, each as long as the counting pass
// found accesses of its kind on its object (Incremental.reserve). The
// spans are capped, so a list that outgrows its share moves rather than
// run into its neighbour's.
func (cf *conflictFrontier) reserve(k *batchCounts) {
	logs := slices.Grow(cf.logArena[:0], k.accesses)
	ups := slices.Grow(cf.updArena[:0], k.upd)
	cf.logArena, cf.updArena = logs, ups
	var a, u int
	for x, n := range k.perObj {
		cf.logs[x] = logs[a : a : a+int(n.all)]
		cf.upd[x] = ups[u : u : u+int(n.upd)]
		a += int(n.all)
		u += int(n.upd)
	}
}

// admit splices a now-visible operation into its object's log and returns
// the operations of its open window that it must be compared with: before
// holds those earlier in β, after those later. For a read-only operation
// both come from the object's non-read-only list, the only entries a read
// can conflict with.
//
//sgvet:hotpath
func (cf *conflictFrontier) admit(op pendingOp) (before, after []pendingOp) {
	x := op.obj
	log, at := spliceBySeq(cf.logs[x], op)
	cf.logs[x] = log
	if op.ro {
		upd := cf.upd[x]
		j := seqIndex(upd, op.seq)
		return openWindow(upd, j, j)
	}
	cf.upd[x], _ = spliceBySeq(cf.upd[x], op)
	return openWindow(log, at, at+1)
}

// openWindow returns the entries of a seq-ascending list around an operation,
// out to and including the nearest wall on each side: list[lo:at] before it
// and list[from:hi] after it, where from is at+1 when list[at] is the
// operation itself and at when the list does not hold it.
//
//sgvet:hotpath
func openWindow(list []pendingOp, at, from int) (before, after []pendingOp) {
	lo := at
	for lo > 0 {
		lo--
		if list[lo].wall {
			break
		}
	}
	hi := from
	for hi < len(list) {
		hi++
		if list[hi-1].wall {
			break
		}
	}
	return list[lo:at], list[from:hi]
}

// seqIndex returns where an operation at stream position seq belongs in a
// seq-ascending list. Late admissions are commits of deep ancestors
// releasing old operations, so the position is found from the back.
//
//sgvet:hotpath
func seqIndex(list []pendingOp, seq int) int {
	i := len(list)
	for i > 0 && list[i-1].seq > seq {
		i--
	}
	return i
}

// spliceBySeq inserts op into a seq-ascending list and returns the list and
// op's index.
//
//sgvet:hotpath
func spliceBySeq(list []pendingOp, op pendingOp) ([]pendingOp, int) {
	i := seqIndex(list, op.seq)
	list = append(list, pendingOp{})
	copy(list[i+1:], list[i:])
	list[i] = op
	return list, i
}
