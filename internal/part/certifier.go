package part

import (
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/tname"
)

// Config sizes a Certifier.
type Config struct {
	// Partitions is P, the number of certifier partitions; values < 1
	// mean 1.
	Partitions int

	// Tree is the interned name tree of the behaviors Prime is given.
	Tree *tname.Tree
}

// partition is one certifier partition: a streaming checker over the
// partition's filtered view of the behavior.
type partition struct {
	id    int
	total int
	inc   *core.Incremental

	// owners caches ObjID → owning partition (lazily filled from Owner;
	// -1 = unresolved).
	owners []int32
}

// Certifier is P partitions, each streaming a behavior through its own
// core.Incremental, whose edge records a core.Composer absorbs into the
// global graph. It is single-threaded: Prime, Reset, Cyclic and Snapshot
// must not run concurrently.
type Certifier struct {
	tr    *tname.Tree
	parts []*partition
	g     *core.Composer
}

// New builds a partitioned certifier over the given system.
func New(cfg Config) *Certifier {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	c := &Certifier{tr: cfg.Tree, g: core.NewComposer(cfg.Tree)}
	for i := 0; i < cfg.Partitions; i++ {
		c.parts = append(c.parts, &partition{id: i, total: cfg.Partitions, inc: core.NewIncremental(cfg.Tree)})
	}
	return c
}

// ownerOf resolves the owning partition of object x through the
// partition-local cache.
//
//sgvet:hotpath
func (p *partition) ownerOf(tr *tname.Tree, x tname.ObjID) int {
	for int(x) >= len(p.owners) {
		p.owners = append(p.owners, -1)
	}
	if p.owners[x] < 0 {
		p.owners[x] = int32(Owner(tr.ObjectLabel(x), p.total))
	}
	return int(p.owners[x])
}

// applyOne routes one event through the partition filter and into the
// partition's checker: access REQUEST_COMMITs belong to their object's
// owner alone, everything else is broadcast.
//
//sgvet:hotpath
func (p *partition) applyOne(tr *tname.Tree, e event.Event) {
	if e.Kind == event.RequestCommit && tr.IsAccess(e.Tx) &&
		p.ownerOf(tr, tr.AccessObject(e.Tx)) != p.id {
		return
	}
	p.inc.Append(e)
}

// Prime feeds b through every partition and absorbs each partition's
// edge records into the composer, so Snapshot and Cyclic cover all of b.
func (c *Certifier) Prime(b event.Behavior) {
	for _, p := range c.parts {
		for _, e := range b {
			p.applyOne(c.tr, e)
		}
		c.g.Absorb(p.inc)
	}
}

// Cyclic reports whether the composed graph has a cycle.
func (c *Certifier) Cyclic() bool { return c.g.Cyclic() }

// Snapshot materializes the composed SG; byte-identical (as DOT) to a
// batch Build over the primed behavior.
func (c *Certifier) Snapshot() *core.SG { return c.g.Snapshot() }

// Reset rewinds the certifier to the empty behavior over the same tree,
// retaining every backing array: a long sequence of Reset+Prime cycles
// allocates nothing in steady state.
func (c *Certifier) Reset() {
	for _, p := range c.parts {
		p.inc.Reset()
	}
	c.g.Reset()
}
