package core

import (
	"fmt"
	"math/bits"
	"slices"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Incremental is the one engine that constructs SG(β): Append consumes one
// event at a time and after the i-th call the internal state describes
// SG(β[:i]); the batch entry points (Build, Check) feed it the whole behavior
// and freeze the result. Cycle detection is per appended edge (Pearce–Kelly
// order maintenance in internal/graph), so a violating trace is rejected at
// its shortest bad prefix — the first i at which SG(β[:i]) acquires a cycle —
// with the certificate Build(β[:i]) produces.
//
// Soundness of prefix verdicts rests on monotonicity: commits only
// accumulate, so visibility to T0 is monotone over prefixes, and with it
// both edge sources — a conflict edge needs its two accesses visible, a
// precedes edge needs the requesting parent visible, and the report/request
// position data it depends on is fixed at request time. The stored edges
// are generating sets of the paper's two relations (frontier,
// conflictFrontier), each monotone by construction: an edge, once stored,
// stays, even when a later admission would have made it redundant. Hence
// SG(β[:i]) ⊆ SG(β[:j]) edge-wise for i ≤ j: a cycle never dissolves, and
// rejecting at the first cycle agrees with the verdict on every extension.
//
// Events whose transactions are not yet visible are parked on their lowest
// uncommitted ancestor and admitted when a COMMIT releases them; each parked
// item re-walks only the suffix of its ancestor path above the released
// blocker, so admission costs amortized O(depth) per item.
//
// All bookkeeping is dense, indexed by the interned transaction and object
// names or by position in shared arenas — there is no per-parent object
// (sgRecords) — and Reset rewinds the checker to the empty prefix while
// keeping every backing array: a long sequence of stream checks over one
// system type runs without steady-state allocations.
type Incremental struct {
	tr  *tname.Tree
	seq int // raw events consumed

	// txs holds one txState per transaction name. Parked items wait in the
	// arenas on their blocker — the lowest uncommitted ancestor (≠ Root) of
	// the access / requesting parent.
	txs        []txState
	parkedOps  parkArena[pendingOp]
	parkedReqs parkArena[pendingReq]

	// sg holds the parent graphs' children and edge records and the one
	// Pearce–Kelly order over all names.
	sg sgRecords

	// prec picks the precedes(β) edges and conf the conflict(β) edges the
	// graph stores.
	prec frontier
	conf conflictFrontier

	// vals holds the value each access record returned, indexed by
	// pendingOp.val, so the records themselves stay free of pointers; the
	// values are packed by spec.Pack, so the array holds none either, and
	// strs is the side table of their strings.
	vals []packedVal
	strs []string

	rejected   *Cycle
	rejectedAt int
}

// txState is what the engine keeps per transaction name beside its graph
// records, free of pointers: the tails of the lists of items parked on it
// as their blocker (-1 when none) and its commit flag.
type txState struct {
	ops, reqs int32
	committed bool
}

// pendingReq is a REQUEST_CREATE awaiting its parent's visibility. from is
// the frontier window at request time: precedes(β) relates only the
// siblings reported before the request, however late the edges materialize,
// so a parked request contributes the same edges at any admission time and
// SG stays monotone over prefixes.
type pendingReq struct {
	parent tname.TxID
	child  tname.TxID
	from   window
}

// packedVal is a returned value as spec.Pack splits it.
type packedVal struct {
	x int64
	k spec.ValueKind
}

// NewIncremental returns an empty streaming checker for the given system.
func NewIncremental(tr *tname.Tree) *Incremental {
	inc := &Incremental{
		tr:         tr,
		sg:         newRecords(tr),
		rejectedAt: -1,
	}
	inc.grow()
	return inc
}

// grow sizes the dense arrays to the current tree. The tree is append-only
// and may gain names between Appends (a generator interning fresh
// transactions mid-stream), so Append re-checks on every call; the check is
// two comparisons, and growTo does the rest.
//
//sgvet:hotpath
func (inc *Incremental) grow() {
	if inc.tr.NumTx() > len(inc.txs) || inc.tr.NumObjects() > len(inc.conf.logs) {
		inc.growTo()
	}
}

// growTo sizes every array indexed by name or object to the tree, each in
// one step however many names arrived.
func (inc *Incremental) growTo() {
	if n := inc.tr.NumTx(); n > len(inc.txs) {
		old := len(inc.txs)
		inc.txs = append(inc.txs, make([]txState, n-old)...)
		for i := old; i < n; i++ {
			inc.txs[i] = txState{ops: -1, reqs: -1}
		}
		inc.prec.grow(n)
		inc.sg.grow()
	}
	inc.conf.grow(inc.tr.NumObjects())
}

// Reset rewinds the checker to the empty prefix, retaining every backing
// array (including the records' arenas and the Pearce–Kelly order) so the
// next stream over the same tree allocates nothing.
func (inc *Incremental) Reset() {
	if inc.seq == 0 {
		// Nothing was appended since the engine was made or last reset.
		return
	}
	inc.seq = 0
	for i := range inc.txs {
		inc.txs[i] = txState{ops: -1, reqs: -1}
	}
	inc.parkedOps.reset()
	inc.parkedReqs.reset()
	inc.prec.reset()
	inc.sg.reset()
	inc.conf.reset()
	inc.vals = inc.vals[:0]
	clear(inc.strs)
	inc.strs = inc.strs[:0]
	inc.rejected = nil
	inc.rejectedAt = -1
}

// batchCounts is what the counting pass of a batch construction
// (Checker.presize) finds in a behavior: per object the accesses that
// requested commit on it and those of them that are not read-only, the
// totals of both, the reports, and the parent graphs and edge records to
// expect.
type batchCounts struct {
	perObj                 []objCount
	accesses, upd, reports int
	parents, edges         int
}

// objCount is one object's share of batchCounts.
type objCount struct{ all, upd int32 }

// count fills k, whose perObj is sized to the objects and zero, with what
// inc holds: the operations admitted to each object's logs, the returned
// values, the reports, the parent graphs and the edge records — exactly
// what a batch construction of the same behavior accumulates.
func (inc *Incremental) count(k *batchCounts) {
	for x := range min(len(k.perObj), len(inc.conf.logs)) {
		all, upd := len(inc.conf.logs[x]), len(inc.conf.upd[x])
		k.perObj[x] = objCount{all: int32(all), upd: int32(upd)}
		k.upd += upd
	}
	k.accesses = len(inc.vals)
	k.reports = len(inc.prec.ents)
	k.parents, _, k.edges = inc.Counts()
}

// reserve makes room, after Reset, for a behavior with counts k: each
// array that accumulates over the behavior is reserved once, at its final
// size, and the per-object logs are spans of one array each.
func (inc *Incremental) reserve(k *batchCounts) {
	inc.grow()
	inc.vals = slices.Grow(inc.vals, k.accesses)
	inc.conf.reserve(k)
	inc.prec.ents = slices.Grow(inc.prec.ents, k.reports)
	inc.sg.reserve(k.parents, k.edges)
}

// Reserve makes room, in an engine nothing has been appended to, for the
// behavior src holds, read once by the counting pass a batch construction
// is presized with (presize), so that certifying src seldom regrows the
// engine's arrays. Recovery reserves the online engine for the durable log
// before its one pass certifies it; the log may grow past src, and the
// arrays then grow with it.
func (inc *Incremental) Reserve(src event.Source) {
	k := &batchCounts{perObj: make([]objCount, inc.tr.NumObjects())}
	countPass(&Checker{tr: inc.tr}, src, k)
	inc.reserve(k)
}

// Rejected returns the sticky verdict: the cycle certificate and the raw
// index of the event whose prefix first made SG cyclic, or (nil, -1) while
// every prefix so far is acyclic.
func (inc *Incremental) Rejected() (*Cycle, int) { return inc.rejected, inc.rejectedAt }

// Append consumes the next event of β. It returns nil while SG of the
// consumed prefix stays acyclic, and the cycle certificate — identical to
// Build(prefix).Acyclicity()'s — from the first violating prefix onward.
// Once non-nil the verdict is sticky: further events still maintain the
// bookkeeping cheaply but the certificate no longer changes.
//
//sgvet:hotpath
func (inc *Incremental) Append(e event.Event) *Cycle {
	inc.grow()
	i := inc.seq
	inc.seq++
	switch e.Kind {
	case event.RequestCommit:
		if inc.tr.IsAccess(e.Tx) {
			x := inc.tr.AccessObject(e.Tx)
			sp := inc.tr.Spec(x)
			ov := spec.OpVal{Op: inc.tr.AccessOp(e.Tx), Val: e.Val}
			op := pendingOp{seq: i, tx: e.Tx, obj: x, val: int32(len(inc.vals)),
				wall: sp.ConflictsWithAll(ov)}
			op.ro = !op.wall && sp.ReadOnly(ov.Op)
			var v packedVal
			v.k, v.x, inc.strs = spec.Pack(e.Val, inc.strs)
			inc.vals = append(inc.vals, v)
			if blk, vis := inc.blocker(e.Tx); vis {
				inc.admitOp(op)
			} else {
				inc.parkedOps.push(&inc.txs[blk].ops, op)
			}
		}

	case event.ReportCommit, event.ReportAbort:
		if e.Tx == tname.Root {
			// Garbage: Root has no parent to report to. Well-formedness
			// rejects the trace; the engine must merely not trip over it.
			break
		}
		inc.prec.report(inc.tr.Parent(e.Tx), e.Tx)

	case event.RequestCreate:
		if e.Tx == tname.Root {
			break
		}
		p := inc.tr.Parent(e.Tx)
		req := pendingReq{parent: p, child: e.Tx, from: inc.prec.request(p, e.Tx)}
		if blk, vis := inc.blocker(p); vis {
			inc.admitReq(req)
		} else {
			inc.parkedReqs.push(&inc.txs[blk].reqs, req)
		}

	case event.Commit:
		inc.commit(e.Tx)

	case event.Create, event.Abort, event.InformCommit, event.InformAbort, event.KindInvalid:
		// CREATE and ABORT contribute no edges (conflict(β) is defined on
		// REQUEST_COMMITs, precedes(β) on report/request pairs, and
		// visibility only consults commits); Inform kinds and invalid
		// events are not serial actions.
	}

	if inc.sg.cyclic && inc.rejected == nil {
		inc.freezeVerdict(i)
	}
	return inc.rejected
}

// freezeVerdict pins the sticky certificate at the first violating prefix.
// The event's effects were applied in full by Append, so the snapshot is
// exactly Build(β[:i+1]) and yields the identical certificate. This runs at
// most once per behavior and materializes a whole SG, so it lives outside
// the zero-alloc Append body the hotalloc gate watches.
func (inc *Incremental) freezeVerdict(i int) {
	_, cyc := inc.Snapshot().Acyclicity()
	if cyc == nil {
		panic("core: incremental cycle signal with acyclic snapshot")
	}
	inc.rejected, inc.rejectedAt = cyc, i
}

// blocker walks start's ancestor path toward the root and returns either
// (_, true) when every ancestor strictly below Root is committed — i.e. the
// transaction is visible to T0 — or the lowest uncommitted ancestor. The
// walk mirrors simple.Vis for the T0 oracle, including the trivial
// visibility of None (the parent of Root).
//
//sgvet:hotpath
func (inc *Incremental) blocker(start tname.TxID) (tname.TxID, bool) {
	for u := start; u != tname.None; u = inc.tr.Parent(u) {
		if u == tname.Root {
			return tname.None, true
		}
		if !inc.txs[u].committed {
			return u, false
		}
	}
	return tname.None, true
}

// commit records COMMIT(t) and releases everything parked on t. Released
// items resume their ancestor walk above t: all of them share the walk, so
// either they are admitted, operations first, each list in parking order,
// or the lists move whole onto the end of the new blocker's, and each item
// pays each ancestor edge at most once.
//
//sgvet:hotpath
func (inc *Incremental) commit(t tname.TxID) {
	st := &inc.txs[t]
	if st.committed {
		return
	}
	st.committed = true
	blk, vis := inc.blocker(inc.tr.Parent(t))
	if !vis {
		b := &inc.txs[blk]
		inc.parkedOps.splice(&b.ops, &st.ops)
		inc.parkedReqs.splice(&b.reqs, &st.reqs)
		return
	}
	// Admission parks nothing and grows no per-name array, so st stays
	// valid across it.
	for op, ok := inc.parkedOps.pop(&st.ops); ok; op, ok = inc.parkedOps.pop(&st.ops) {
		inc.admitOp(op)
	}
	for req, ok := inc.parkedReqs.pop(&st.reqs); ok; req, ok = inc.parkedReqs.pop(&st.reqs) {
		inc.admitReq(req)
	}
}

// admitOp splices a now-visible operation into its object's log and relates
// it to the operations of its open window (see conflictFrontier), in both
// directions: operations that became visible earlier may carry later stream
// positions, so the new arrival can be the chronological predecessor of
// some and the successor of others.
//
//sgvet:hotpath
func (inc *Incremental) admitOp(op pendingOp) {
	sp := inc.tr.Spec(op.obj)
	ov := inc.opVal(op)
	before, after := inc.conf.admit(op)
	for _, prev := range before {
		if sp.Conflicts(inc.opVal(prev), ov) {
			inc.conflict(prev.tx, op.tx)
		}
	}
	for _, next := range after {
		if sp.Conflicts(ov, inc.opVal(next)) {
			inc.conflict(op.tx, next.tx)
		}
	}
}

// opVal rebuilds the operation of an access record with its returned value.
//
//sgvet:hotpath
func (inc *Incremental) opVal(op pendingOp) spec.OpVal {
	v := inc.vals[op.val]
	return spec.OpVal{Op: inc.tr.AccessOp(op.tx), Val: spec.Unpack(v.k, v.x, inc.strs)}
}

// conflict records the SG edge of a conflicting operation pair: between the
// children of the least common ancestor of the two accesses. Two entries of
// one access (a duplicated REQUEST_COMMIT) yield none.
func (inc *Incremental) conflict(prev, cur tname.TxID) {
	if prev == cur {
		return
	}
	lca := inc.tr.LCA(prev, cur)
	inc.sg.add(lca, inc.tr.ChildAncestor(lca, prev), inc.tr.ChildAncestor(lca, cur), EdgeConflict)
}

// admitReq materializes the precedes edges of one REQUEST_CREATE whose
// parent is now visible: from each sibling on the frontier at request time
// to the requested child.
//
//sgvet:hotpath
func (inc *Incremental) admitReq(req pendingReq) {
	k := req.from.at
	for range req.from.n {
		var t tname.TxID
		t, k = inc.prec.sibling(k)
		if t != req.child {
			inc.sg.add(req.parent, t, req.child, EdgePrecedes)
		}
	}
}

// sameRecords reports whether inc and o, both accumulating, hold the same
// parent graphs in the same discovery order, each with the same children
// and edge records in discovery order. An event that is not a serial
// action, such as an INFORM, only advances the stream position, which
// leaves the relative order of any two positions as it was, so an engine
// also fed those events keeps the same records.
//
//sgvet:hotpath
func (inc *Incremental) sameRecords(o *Incremental) bool {
	return inc.sg.same(&o.sg)
}

// Counts reports the live size of the maintained graph: materialized parent
// graphs, child nodes across all of them, and distinct (pair, kind) edge
// records. It is O(1) and does not materialize a snapshot, so a committer
// can refresh the server's gauges after every certified run.
func (inc *Incremental) Counts() (parents, nodes, edges int) {
	return len(inc.sg.parents), inc.sg.nodes, len(inc.sg.recs)
}

// Snapshot materializes SG of the consumed prefix: the canonical freeze of
// the live records into a fresh SG, independent of the live state, which
// continues to accept Appends. Build over the same prefix is structurally
// identical.
func (inc *Incremental) Snapshot() *SG {
	return inc.freezeInto(&SG{}, &freezeScratch{})
}

// freezeInto is Snapshot into the caller's pooled SG. It is how the batch
// entry points finish.
//
//sgvet:hotpath
func (inc *Incremental) freezeInto(sg *SG, fz *freezeScratch) *SG {
	sg.tr = inc.tr
	sg.VisibleOps = sg.VisibleOps[:0]
	return inc.freeze(sg, fz)
}

// freeze writes the canonical graphs into sg (sgRecords.freeze) and fills
// in the visible operations: the per-object logs hold exactly the admitted
// operations, so their union in stream-position order is
// operations(visible(β-prefix, T0)) in β order. The positions are distinct
// and below the events consumed, so a bitmap over them, with the count of
// set bits before each word, places every operation without comparing
// two.
//
//sgvet:hotpath
func (inc *Incremental) freeze(sg *SG, fz *freezeScratch) *SG {
	inc.sg.freeze(sg, fz)
	words := (inc.seq + 63) / 64
	seen := sized(fz.seen, words)
	below := sized(fz.below, words)
	for _, log := range inc.conf.logs {
		for _, op := range log {
			seen[op.seq/64] |= 1 << (op.seq % 64)
		}
	}
	n := int32(0)
	for w, word := range seen {
		below[w] = n
		n += int32(bits.OnesCount64(word))
	}
	fz.seen, fz.below = seen, below
	ops := sized(sg.VisibleOps, int(n))
	for _, log := range inc.conf.logs {
		for _, op := range log {
			w, b := op.seq/64, op.seq%64
			ops[below[w]+int32(bits.OnesCount64(seen[w]&(1<<b-1)))] = event.AccessOp{Tx: op.tx, Obj: op.obj, OV: inc.opVal(op)}
		}
	}
	sg.VisibleOps = ops
	return sg
}

// StreamPrefix feeds b's events through an Incremental and returns the raw
// index of the first event whose prefix has a cyclic SG, with the cycle
// certificate, or (-1, nil) when every prefix — hence b itself — has an
// acyclic SG. Note that acyclicity is one hypothesis of Theorem 8/19, not
// the whole check; callers wanting the full verdict run Check afterwards.
// Repeated streams over one tree should share a Checker and use its
// StreamPrefix method, which pools the Incremental across calls.
func StreamPrefix(tr *tname.Tree, b event.Behavior) (int, *Cycle) {
	return NewChecker(tr).StreamPrefix(b)
}

// String summarizes the checker state for diagnostics.
func (inc *Incremental) String() string {
	if inc.rejected != nil {
		return fmt.Sprintf("incremental: rejected at event %d after %d events", inc.rejectedAt, inc.seq)
	}
	return fmt.Sprintf("incremental: %d events, %d parents, acyclic", inc.seq, len(inc.sg.parents))
}
