package core

import (
	"runtime"
	"sync"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// edgeKey identifies one (pair, kind) edge record for deduplication during
// accumulation.
type edgeKey struct {
	parent   tname.TxID
	from, to int32
	kind     EdgeKind
}

// Checker constructs serialization graphs and runs the Theorem 8/19 check
// over one system type, pooling every piece of working memory — node maps,
// visibility memos, per-object operation lists, edge-dedup sets, the
// freeze scratch and the streaming checker — so repeated Build/Check/
// StreamPrefix calls over the same tname.Tree amortize to (near-)zero
// steady-state allocations. Interned transaction and object names are
// small dense ints, which is what makes every former map a slice.
//
// A Checker is not safe for concurrent use, and the *SG / *Result returned
// by its methods alias the pooled buffers: each return value is valid only
// until the next call on the same Checker. Callers that need results to
// outlive the next call should use the package-level free functions, which
// construct a throwaway Checker per call.
type Checker struct {
	tr *tname.Tree

	// epoch stamps the per-tx and per-object scratch entries; bumping it is
	// the O(1) "clear everything" of each build.
	epoch uint32

	// Per transaction: the node index in its parent's graph (every tx is a
	// child of exactly one parent, so one array serves all parent graphs),
	// the recycled parent graph keyed by parent name, the commit stamp and
	// the visible-to-T0 memo (1 visible, 2 not).
	nodeOf  []int32
	nodeEp  []uint32
	pgOf    []*ParentGraph
	pgEp    []uint32
	comEp   []uint32
	visMemo []uint8
	visEp   []uint32

	// prec picks the precedes(β) edges: per parent, the reported children
	// and the frontier a request draws from.
	prec frontier

	// Per object: the visible operations in β order, and the discovery
	// order of objects with operations.
	byObj [][]event.AccessOp
	objEp []uint32
	objs  []tname.ObjID

	// seen dedups (pair, kind) edge records; cleared (not reallocated) per
	// build.
	seen map[edgeKey]struct{}

	sg        SG
	fz        freezeScratch
	win       []event.AccessOp
	serialBuf event.Behavior
	reduced   bool

	inc *Incremental

	// Parallel-scan worker pools.
	workerSeen []map[edgeRec]struct{}
	workerWin  [][]event.AccessOp
}

// NewChecker returns a Checker for the given system type. The pooled
// scratch grows to the tree's size on first use and is retained across
// calls.
func NewChecker(tr *tname.Tree) *Checker {
	return &Checker{tr: tr, seen: make(map[edgeKey]struct{})}
}

// grow sizes the dense per-tx/per-object scratch to the current tree; the
// tree may gain names between calls (it is append-only), never lose them.
func (c *Checker) grow() {
	if n := c.tr.NumTx(); n > len(c.nodeOf) {
		for len(c.nodeOf) < n {
			c.nodeOf = append(c.nodeOf, 0)
			c.nodeEp = append(c.nodeEp, 0)
			c.pgOf = append(c.pgOf, nil)
			c.pgEp = append(c.pgEp, 0)
			c.comEp = append(c.comEp, 0)
			c.visMemo = append(c.visMemo, 0)
			c.visEp = append(c.visEp, 0)
		}
		c.prec.grow(n)
	}
	if n := c.tr.NumObjects(); n > len(c.byObj) {
		for len(c.byObj) < n {
			c.byObj = append(c.byObj, nil)
			c.objEp = append(c.objEp, 0)
		}
	}
}

// begin opens a build: size the scratch, advance the epoch and reset the
// recycled result.
//
//sgvet:hotpath
func (c *Checker) begin() {
	c.grow()
	c.epoch++
	if c.epoch == 0 {
		// Wraparound after 2^32 builds: stale stamps could collide, so pay
		// one full clear.
		clear(c.nodeEp)
		clear(c.pgEp)
		clear(c.comEp)
		clear(c.visEp)
		clear(c.objEp)
		c.epoch = 1
	}
	c.prec.reset()
	clear(c.seen)
	c.objs = c.objs[:0]
	c.sg.tr = c.tr
	c.sg.parents = c.sg.parents[:0]
	c.sg.VisibleOps = c.sg.VisibleOps[:0]
}

// visible reports whether tx is visible to T0: every ancestor strictly
// below Root has a COMMIT stamp. Memoized along the walked path, mirroring
// simple.Vis for the T0 oracle.
//
//sgvet:hotpath
func (c *Checker) visible(t tname.TxID) bool {
	if t == tname.Root || t == tname.None {
		return true
	}
	res := false
	u := t
	for {
		if u == tname.Root || u == tname.None {
			res = true
			break
		}
		if c.visEp[u] == c.epoch {
			res = c.visMemo[u] == 1
			break
		}
		if c.comEp[u] != c.epoch {
			break
		}
		u = c.tr.Parent(u)
	}
	memo := uint8(2)
	if res {
		memo = 1
	}
	for v := t; v != u && v != tname.Root && v != tname.None; v = c.tr.Parent(v) {
		c.visEp[v] = c.epoch
		c.visMemo[v] = memo
	}
	if u != tname.Root && u != tname.None {
		c.visEp[u] = c.epoch
		c.visMemo[u] = memo
	}
	return res
}

// pg returns the (recycled) parent graph for p in the current build.
func (c *Checker) pg(p tname.TxID) *ParentGraph {
	if c.pgEp[p] == c.epoch {
		return c.pgOf[p]
	}
	g := c.pgOf[p]
	if g == nil {
		g = &ParentGraph{Parent: p}
		c.pgOf[p] = g
	} else {
		g.Children = g.Children[:0]
		g.edges = g.edges[:0]
	}
	c.pgEp[p] = c.epoch
	c.sg.parents = append(c.sg.parents, g)
	return g
}

// node returns t's node index in pg, materializing the child on first use.
//
//sgvet:hotpath
func (c *Checker) node(pg *ParentGraph, t tname.TxID) int32 {
	if c.nodeEp[t] == c.epoch {
		return c.nodeOf[t]
	}
	i := int32(len(pg.Children))
	pg.Children = append(pg.Children, t)
	c.nodeOf[t] = i
	c.nodeEp[t] = c.epoch
	return i
}

// addEdge records from→to in SG(β, parent), once per (pair, kind).
func (c *Checker) addEdge(parent, from, to tname.TxID, kind EdgeKind) {
	pg := c.pg(parent)
	f, t := c.node(pg, from), c.node(pg, to)
	k := edgeKey{parent: parent, from: f, to: t, kind: kind}
	if _, dup := c.seen[k]; dup {
		return
	}
	c.seen[k] = struct{}{}
	pg.edges = append(pg.edges, Edge{From: f, To: t, Kind: kind})
}

// emit implements conflictSink for the sequential scan.
//
//sgvet:hotpath
func (c *Checker) emit(prev, cur event.AccessOp) {
	if p, u, u2, ok := conflictEdge(c.tr, prev, cur); ok {
		c.addEdge(p, u, u2, EdgeConflict)
	}
}

// prepare runs the linear pass over b's serial actions: commit stamps,
// visibility, operations(visible(β, T0)) per object, and the generating
// precedes(β) edges (see frontier). Inform events are skipped inline, so
// callers may pass generic behaviors without projecting first.
//
//sgvet:hotpath
func (c *Checker) prepare(b event.Behavior) {
	c.begin()
	for _, e := range b {
		if e.Kind == event.Commit {
			c.comEp[e.Tx] = c.epoch
		}
	}
	for _, e := range b {
		switch e.Kind {
		case event.RequestCommit:
			if !c.tr.IsAccess(e.Tx) || !c.visible(e.Tx) {
				continue
			}
			x := c.tr.AccessObject(e.Tx)
			cur := event.AccessOp{Tx: e.Tx, Obj: x,
				OV: spec.OpVal{Op: c.tr.AccessOp(e.Tx), Val: e.Val}}
			if c.objEp[x] != c.epoch {
				c.objEp[x] = c.epoch
				c.byObj[x] = c.byObj[x][:0]
				c.objs = append(c.objs, x)
			}
			c.byObj[x] = append(c.byObj[x], cur)
			c.sg.VisibleOps = append(c.sg.VisibleOps, cur)

		case event.ReportCommit, event.ReportAbort:
			if e.Tx == tname.Root {
				// Garbage: Root has no parent to report to. Well-formedness
				// rejects this; Build must merely not trip over it, and the
				// streaming checker skips it identically.
				continue
			}
			c.prec.report(c.tr.Parent(e.Tx), e.Tx)

		case event.RequestCreate:
			if e.Tx == tname.Root {
				// Garbage: Root is never requested. See ReportCommit above.
				continue
			}
			p := c.tr.Parent(e.Tx)
			if !c.visible(p) {
				// No request under p yields an edge in this build, so none
				// needs recording either.
				continue
			}
			for _, t := range c.prec.siblings(p, c.prec.request(p, e.Tx)) {
				if t != e.Tx {
					c.addEdge(p, t, e.Tx, EdgePrecedes)
				}
			}

		default:
			// CREATE, COMMIT and ABORT contribute no edges: conflict(β) is
			// defined on REQUEST_COMMITs and precedes(β) on report/request
			// pairs. Inform kinds never enter the serial projection.
		}
	}
}

// freeze canonicalizes the accumulated graphs: ascending parent order and
// per-graph canonical child numbering.
//
//sgvet:hotpath
func (c *Checker) freeze() *SG {
	c.sg.sortParents()
	for _, g := range c.sg.parents {
		g.build(&c.fz)
	}
	return &c.sg
}

//sgvet:hotpath
func (c *Checker) build(b event.Behavior, reduced bool) *SG {
	c.prepare(b)
	c.reduced = reduced
	for _, x := range c.objs {
		c.win = scanObjectConflicts(c.tr.Spec(x), c.byObj[x], reduced, c.win, c)
	}
	return c.freeze()
}

// Build constructs SG(β) exactly as the package-level Build, reusing the
// checker's pooled scratch. The result is valid until the next call on
// this Checker.
func (c *Checker) Build(b event.Behavior) *SG { return c.build(b, false) }

// BuildReduced is Build with the register transitive-reduction fast path
// (see the package-level BuildReduced).
func (c *Checker) BuildReduced(b event.Behavior) *SG { return c.build(b, true) }

// serialInto refills the pooled projection buffer with b's serial actions.
//
//sgvet:hotpath
func (c *Checker) serialInto(b event.Behavior) event.Behavior {
	c.serialBuf = c.serialBuf[:0]
	for _, e := range b {
		if e.Kind.IsSerial() {
			c.serialBuf = append(c.serialBuf, e)
		}
	}
	return c.serialBuf
}

// Check verifies the hypotheses of Theorem 8/19 exactly as the
// package-level Check, reusing the checker's pooled scratch. The result is
// valid until the next call on this Checker.
func (c *Checker) Check(b event.Behavior) *Result {
	return c.check(b, func(serial event.Behavior) *SG { return c.Build(serial) })
}

// CheckParallel is Check with the conflict scans fanned out over workers
// (see BuildParallel). Verdicts and certificates are identical to Check's.
func (c *Checker) CheckParallel(b event.Behavior, workers int) *Result {
	return c.check(b, func(serial event.Behavior) *SG { return c.BuildParallel(serial, workers) })
}

func (c *Checker) check(b event.Behavior, build func(event.Behavior) *SG) *Result {
	res := &Result{}
	serial := c.serialInto(b)
	if err := simple.CheckWellFormed(c.tr, serial); err != nil {
		res.WFErr = err
		return res
	}
	res.SG = build(serial)
	res.ValueViolations = simple.AppropriateReturnValues(c.tr, serial)
	if len(res.ValueViolations) > 0 {
		return res
	}
	order, cycle := res.SG.Acyclicity()
	if cycle != nil {
		res.Cycle = cycle
		return res
	}
	views, err := ComputeViews(c.tr, res.SG, order)
	if err != nil {
		res.ViewErr = err
		return res
	}
	res.OK = true
	res.Certificate = &Certificate{Order: order, Views: views}
	return res
}

// StreamPrefix replays b through the checker's pooled Incremental and
// returns the raw index of the first event whose prefix has a cyclic SG,
// with the cycle certificate, or (-1, nil) when every prefix passes. See
// the package-level StreamPrefix.
func (c *Checker) StreamPrefix(b event.Behavior) (int, *Cycle) {
	if c.inc == nil {
		c.inc = NewIncremental(c.tr)
	} else {
		c.inc.Reset()
	}
	for _, e := range b {
		if cyc := c.inc.Append(e); cyc != nil {
			_, at := c.inc.Rejected()
			return at, cyc
		}
	}
	return -1, nil
}

// edgeRec is one conflict edge discovered by a parallel scan worker,
// already mapped to the children of the accesses' least common ancestor.
type edgeRec struct {
	parent   tname.TxID
	from, to tname.TxID
}

// workerSink collects one worker's deduplicated conflict edges.
type workerSink struct {
	tr   *tname.Tree
	seen map[edgeRec]struct{}
}

func (w *workerSink) emit(prev, cur event.AccessOp) {
	if p, u, u2, ok := conflictEdge(w.tr, prev, cur); ok {
		w.seen[edgeRec{parent: p, from: u, to: u2}] = struct{}{}
	}
}

// BuildParallel constructs the same SG(β) as Build, fanning the per-object
// conflict scans out over a bounded worker pool. The linear pass
// (visibility, visible-operation collection, precedes(β)) stays sequential
// — it is cheap and order-sensitive — while the quadratic per-object scans,
// which dominate on contended workloads and are independent across objects,
// run concurrently. workers ≤ 0 means GOMAXPROCS.
//
// The result is structurally identical to Build's: canonical child
// numbering makes node indices, certificates and DOT output a function of
// the edge set alone, and the edge set does not depend on scan order.
func (c *Checker) BuildParallel(b event.Behavior, workers int) *SG {
	return c.buildParallel(b, false, workers)
}

// BuildReducedParallel is BuildParallel with BuildReduced's register
// transitive-reduction fast path.
func (c *Checker) BuildReducedParallel(b event.Behavior, workers int) *SG {
	return c.buildParallel(b, true, workers)
}

func (c *Checker) buildParallel(b event.Behavior, reduced bool, workers int) *SG {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c.prepare(b)
	c.reduced = reduced
	if workers > len(c.objs) {
		workers = len(c.objs)
	}
	if workers <= 1 {
		// Nothing to fan out; run the sequential scan.
		for _, x := range c.objs {
			c.win = scanObjectConflicts(c.tr.Spec(x), c.byObj[x], reduced, c.win, c)
		}
		return c.freeze()
	}

	// Each worker dedupes into a private edge set — on contended workloads
	// the scan emits the same (parent, from, to) triple once per conflicting
	// pair, so sharing a sink would serialize the workers on its lock and
	// leave the merge replaying hundreds of thousands of duplicates. The
	// merge below only ever sees each worker's unique edges. tname.Tree is
	// read-only during checks, so the LCA queries inside the workers are
	// safe. Worker sets and window buffers are pooled on the Checker.
	for len(c.workerSeen) < workers {
		c.workerSeen = append(c.workerSeen, make(map[edgeRec]struct{}))
		c.workerWin = append(c.workerWin, nil)
	}
	jobs := make(chan tname.ObjID)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := workerSink{tr: c.tr, seen: c.workerSeen[w]}
			win := c.workerWin[w]
			for x := range jobs {
				win = scanObjectConflicts(c.tr.Spec(x), c.byObj[x], reduced, win, &sink)
			}
			c.workerWin[w] = win
		}(w)
	}
	for _, x := range c.objs {
		jobs <- x
	}
	close(jobs)
	wg.Wait()

	for _, seen := range c.workerSeen[:workers] {
		for e := range seen {
			c.addEdge(e.parent, e.from, e.to, EdgeConflict)
		}
		clear(seen)
	}
	return c.freeze()
}
