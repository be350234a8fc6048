package part

import (
	"fmt"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/tname"
	"nestedsg/internal/wire"
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
// partition's filtered view of the behavior, plus its pending edges.
type partition struct {
	id    int
	total int
	inc   *core.Incremental

	// owners caches ObjID → owning partition (lazily filled from Owner;
	// -1 = unresolved).
	owners []int32

	// pend accumulates the edge records the sink observed since the last
	// flush; buf is the encode scratch.
	pend []wire.SGEdge
	buf  []byte
}

// Certifier is P partitions, each streaming a behavior through its own
// core.Incremental, whose edge batches a core.Composer unions into the
// global graph. It is single-threaded: Prime, Reset, Cyclic and Snapshot
// must not run concurrently.
type Certifier struct {
	tr    *tname.Tree
	parts []*partition
	g     *core.Composer

	// scratch is the decode-side batch, its Edges array recycled across
	// deliveries.
	scratch wire.EdgeBatch
}

// New builds a partitioned certifier over the given system.
func New(cfg Config) *Certifier {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	c := &Certifier{tr: cfg.Tree, g: core.NewComposer(cfg.Tree)}
	for i := 0; i < cfg.Partitions; i++ {
		p := &partition{id: i, total: cfg.Partitions, inc: core.NewIncremental(cfg.Tree)}
		p.inc.SetEdgeSink(func(parent, from, to tname.TxID, kind core.EdgeKind) {
			p.pend = append(p.pend, wire.SGEdge{
				Parent: uint32(parent), From: uint32(from), To: uint32(to), Kind: uint8(kind),
			})
		})
		c.parts = append(c.parts, p)
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

// Prime feeds b through every partition, then ships each partition's
// edges to the composer, so Snapshot and Cyclic cover all of b.
func (c *Certifier) Prime(b event.Behavior) {
	for _, p := range c.parts {
		for _, e := range b {
			p.applyOne(c.tr, e)
		}
		c.flush(p, len(b))
	}
}

// maxBatch is the most edge records one batch carries — the cap the
// decoder enforces. observeBatch, when set, sees every decoded batch. Both
// are variables only for tests: a backlog past the real cap takes a
// million edges to build.
var (
	maxBatch     = wire.MaxEdgeBatch
	observeBatch func(part, edges, upTo int)
)

// flush delivers the partition's pending edges and its event bound to the
// composer, split into batches of at most maxBatch records. Only the last
// batch carries upTo; the earlier ones claim no events (bound 0).
func (c *Certifier) flush(p *partition, upTo int) {
	rest := p.pend
	for len(rest) > maxBatch {
		c.deliver(p.encode(0, rest[:maxBatch]))
		rest = rest[maxBatch:]
	}
	c.deliver(p.encode(upTo, rest))
	p.pend = p.pend[:0]
}

// encode freezes edge records and a bound as one wire.EdgeBatch payload.
// The round trip through the codec is deliberate: the encoded form is the
// exchange protocol.
func (p *partition) encode(upTo int, edges []wire.SGEdge) []byte {
	p.buf = wire.AppendEdgeBatch(p.buf[:0], wire.EdgeBatch{Part: p.id, UpTo: upTo, Edges: edges})
	return p.buf
}

// deliver parses one edge batch and adds its records to the composed
// graph. A decode failure is a protocol bug between in-process peers,
// hence a panic.
func (c *Certifier) deliver(payload []byte) {
	b, err := wire.ParseEdgeBatch(payload, c.scratch)
	c.scratch = b
	if err != nil {
		panic(fmt.Sprintf("part: malformed edge batch: %v", err))
	}
	if b.Part < 0 || b.Part >= len(c.parts) {
		panic(fmt.Sprintf("part: edge batch from unknown partition %d", b.Part))
	}
	if observeBatch != nil {
		observeBatch(b.Part, len(b.Edges), b.UpTo)
	}
	n := c.tr.NumTx()
	for _, e := range b.Edges {
		if int(e.Parent) >= n || int(e.From) >= n || int(e.To) >= n {
			panic(fmt.Sprintf("part: edge batch names unknown transaction (%d/%d/%d of %d)",
				e.Parent, e.From, e.To, n))
		}
		c.g.AddEdge(tname.TxID(e.Parent), tname.TxID(e.From), tname.TxID(e.To), core.EdgeKind(e.Kind))
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
		p.pend = p.pend[:0]
	}
	c.g.Reset()
}
