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

// AddEdge records from→to in SG(β, parent) and feeds any new pair to the
// Pearce–Kelly order, flagging the first cycle. It reports whether the
// record was new — a duplicate (already delivered by this or another
// partition) is a no-op. The tree is append-only and may gain names between
// AddEdges, so AddEdge re-checks its size on every call.
func (c *Composer) AddEdge(parent, from, to tname.TxID, kind EdgeKind) bool {
	c.sg.grow()
	return c.sg.add(parent, from, to, kind)
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

// String summarizes the composer state for diagnostics.
func (c *Composer) String() string {
	verdict := "acyclic"
	if c.sg.cyclic {
		verdict = "cyclic"
	}
	return fmt.Sprintf("composer: %d parents, %d edges, %s", len(c.sg.parents), len(c.sg.recs), verdict)
}
