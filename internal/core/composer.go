package core

import (
	"fmt"

	"nestedsg/internal/tname"
)

// Composer rebuilds SG(β) from edge *records* rather than events. It is
// the receiving half of the offline partitioned certifier
// (internal/part): each partition streams its local event sub-stream
// through an Incremental and exports the edges it derives; the Composer
// unions those edge sets into the global graph and runs the same
// per-edge Pearce–Kelly cycle detection over the union.
//
// Correctness rests on two facts. First, SG(β) is a pure function of its
// edge set — Snapshot applies the same canonical freeze as Build, so two
// edge multisets with equal support produce byte-identical DOT renderings
// regardless of arrival order or duplication. Second, edge records are
// monotone: partitions only ever add edges (visibility is monotone over
// prefixes, see Incremental), so a cycle detected in the union never
// dissolves and the composed verdict is sticky, exactly like the
// single-stream checker's.
//
// The bookkeeping is dense: nodeOf is indexed by the
// interned transaction name (every transaction is a child of exactly one
// parent, so one array serves all parent graphs), and Reset rewinds to
// the empty graph while keeping every backing array.
type Composer struct {
	tr *tname.Tree

	// Per transaction: the node index in its parent's graph (-1 until
	// materialized) and the recycled per-parent structures.
	nodeOf []int32
	pgOf   []*ParentGraph
	active []bool

	// parents lists the materialized parent graphs in arrival order;
	// Snapshot sorts its clone of the list.
	parents []*ParentGraph

	// seen dedups (pair, kind) edge records.
	seen map[edgeKey]struct{}

	cyclic bool
}

// edgeKey identifies one (pair, kind) edge record for deduplication.
type edgeKey struct {
	parent   tname.TxID
	from, to int32
	kind     EdgeKind
}

// NewComposer returns an empty edge-fed graph for the given system.
func NewComposer(tr *tname.Tree) *Composer {
	c := &Composer{tr: tr, seen: make(map[edgeKey]struct{})}
	c.grow()
	return c
}

// grow sizes the dense arrays to the current tree; the tree is append-only
// and may gain names between AddEdges, so AddEdge re-checks on every call.
func (c *Composer) grow() {
	if n := c.tr.NumTx(); n > len(c.nodeOf) {
		for len(c.nodeOf) < n {
			c.nodeOf = append(c.nodeOf, -1)
			c.pgOf = append(c.pgOf, nil)
			c.active = append(c.active, false)
		}
	}
}

// AddEdge records from→to in SG(β, parent) and feeds any new pair to the
// parent's Pearce–Kelly order, flagging the first cycle. It reports
// whether the record was new — a duplicate (already delivered by this or
// another partition) is a no-op.
func (c *Composer) AddEdge(parent, from, to tname.TxID, kind EdgeKind) bool {
	c.grow()
	pg := c.pgOf[parent]
	if pg == nil {
		pg = &ParentGraph{Parent: parent}
		c.pgOf[parent] = pg
	}
	if !c.active[parent] {
		c.active[parent] = true
		c.parents = append(c.parents, pg)
	}
	d := &pg.dyn
	f := c.node(pg, from)
	t := c.node(pg, to)
	for d.Len() < len(pg.Children) {
		d.AddNode()
	}
	k := edgeKey{parent: parent, from: f, to: t, kind: kind}
	if _, dup := c.seen[k]; dup {
		return false
	}
	c.seen[k] = struct{}{}
	pg.edges = append(pg.edges, Edge{From: f, To: t, Kind: kind})
	if c.cyclic {
		// Already rejected: keep the edge bookkeeping (Snapshot stays
		// truthful) but the stale order cannot answer further queries.
		return true
	}
	if cyc := d.AddEdge(int(f), int(t)); cyc != nil {
		c.cyclic = true
	}
	return true
}

// node returns t's node index in pg, materializing the child on first use.
//
//sgvet:hotpath
func (c *Composer) node(pg *ParentGraph, t tname.TxID) int32 {
	if i := c.nodeOf[t]; i >= 0 {
		return i
	}
	i := int32(len(pg.Children))
	pg.Children = append(pg.Children, t)
	c.nodeOf[t] = i
	return i
}

// Cyclic reports the sticky verdict: whether any delivered edge closed a
// cycle in some parent graph.
func (c *Composer) Cyclic() bool { return c.cyclic }

// Snapshot materializes the composed SG. Given the full edge set of some
// prefix, the result is structurally identical to Build over that prefix —
// same canonical freeze, same DOT bytes. VisibleOps is left empty: the
// composer sees edges, not operations; the audit currency is the DOT
// rendering, which does not include them.
func (c *Composer) Snapshot() *SG {
	sg := &SG{tr: c.tr}
	var fz freezeScratch
	for _, pg := range c.parents {
		cl := pg.clone()
		cl.build(&fz)
		sg.parents = append(sg.parents, cl)
	}
	sg.sortParents()
	return sg
}

// Reset rewinds the composer to the empty graph, retaining every backing
// array so the next composition over the same tree allocates nothing.
func (c *Composer) Reset() {
	for _, pg := range c.parents {
		for _, t := range pg.Children {
			c.nodeOf[t] = -1
		}
		pg.Children = pg.Children[:0]
		pg.edges = pg.edges[:0]
		c.active[pg.Parent] = false
		pg.dyn.Reset()
	}
	c.parents = c.parents[:0]
	clear(c.seen)
	c.cyclic = false
}

// String summarizes the composer state for diagnostics.
func (c *Composer) String() string {
	if c.cyclic {
		return fmt.Sprintf("composer: %d parents, %d edges, cyclic", len(c.parents), len(c.seen))
	}
	return fmt.Sprintf("composer: %d parents, %d edges, acyclic", len(c.parents), len(c.seen))
}
