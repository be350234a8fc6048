package core

import "nestedsg/internal/tname"

// Composer rebuilds SG(β) from edge *records* rather than events. It is
// the receiving half of the offline partitioned certifier
// (internal/part): each partition streams its local event sub-stream
// through an Incremental, and the Composer absorbs the edge records each
// one holds into the global graph, running the same per-edge Pearce–Kelly
// cycle detection over the union.
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
// The bookkeeping is the engine's own (sgRecords): children and edge
// records in shared arrays indexed by name, one Pearce–Kelly order over all
// names whose arc labels dedup the records, and Reset rewinds to the empty
// graph while keeping every backing array.
type Composer struct {
	sg sgRecords
}

// NewComposer returns an empty edge-fed graph for the given system.
func NewComposer(tr *tname.Tree) *Composer {
	return &Composer{sg: newRecords(tr)}
}

// Absorb adds every edge record inc holds, parent graph by parent graph,
// feeding each new pair to the Pearce–Kelly order and flagging the first
// cycle. A record already absorbed from this or another partition is a
// no-op. inc must run over the composer's tree; the tree is append-only
// and may have gained names since the last Absorb, so Absorb re-checks its
// size first.
//
//sgvet:hotpath
func (c *Composer) Absorb(inc *Incremental) {
	c.sg.grow()
	r := &inc.sg
	for _, p := range r.parents {
		for i := r.names[p].firstEdge; i >= 0; i = r.recs[i].next {
			e := r.recs[i]
			c.sg.add(p, e.from, e.to, e.kind)
		}
	}
}

// Cyclic reports the sticky verdict: whether any delivered edge closed a
// cycle in some parent graph.
func (c *Composer) Cyclic() bool { return c.sg.cyclic }

// Snapshot materializes the composed SG. Given the full edge set of some
// prefix, the result is structurally identical to Build over that prefix —
// same canonical freeze, same DOT bytes. VisibleOps is left empty: the
// composer sees edges, not operations; the audit currency is the DOT
// rendering, which does not include them.
func (c *Composer) Snapshot() *SG {
	sg := &SG{tr: c.sg.tr}
	c.sg.freeze(sg, &freezeScratch{})
	return sg
}

// Reset rewinds the composer to the empty graph, retaining every backing
// array so the next composition over the same tree allocates nothing.
func (c *Composer) Reset() { c.sg.reset() }
