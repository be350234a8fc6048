package part

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/tname"
	"nestedsg/internal/wire"
)

// Hooks receives the certifier partitions' scheduling points. The
// simulator implements it to freeze partitions at deterministic event
// bounds; the live server's hooks are no-ops.
type Hooks interface {
	// CertApply is called before partition part applies the event at log
	// index index. It may block (a stalled partition); no locks are held
	// and the partition's previous edge batch — bound included — has
	// already been delivered to the composer.
	CertApply(part, index int)
	// CertBatch returns how many events (1..max) partition part should
	// apply in one locked run starting at index. It must not block.
	CertBatch(part, index, max int) int
}

// nopHooks is the live implementation: never stall, largest runs.
type nopHooks struct{}

func (nopHooks) CertApply(int, int)          {}
func (nopHooks) CertBatch(_, _, max int) int { return max }

// Config wires a Certifier into its host.
type Config struct {
	// Partitions is P, the number of certifier partitions; values < 1
	// mean 1.
	Partitions int

	// Tree is the interned name tree shared with the event source.
	Tree *tname.Tree

	// Lock, when non-nil, is held for reading the tree while applying
	// events and composing edges — the server passes its state lock's
	// RLocker. Prime runs before any concurrency exists and does not
	// take it.
	Lock sync.Locker

	// Source streams the total-order log: it blocks until events
	// beyond n exist, returning them (from n on) in buf's backing array,
	// or ok=false once the log is closed and drained. Required by Start;
	// a purely primed certifier (recovery audits, fuzzing) leaves it nil.
	Source func(n int, buf event.Behavior) (event.Behavior, bool)

	// Hooks, when nil, defaults to no-ops.
	Hooks Hooks

	// ObserveLag, when non-nil, receives each delivered batch's compose
	// lag: how far the delivering partition's bound ran ahead of the
	// composed watermark, in events. The server feeds per-partition
	// histograms from it.
	ObserveLag func(part, lag int)
}

// partition is one certifier partition: a streaming checker over the
// partition's filtered view of the log plus the flush machinery. All
// fields except applied are confined to the owning worker goroutine
// (or to the single-threaded Prime).
type partition struct {
	id    int
	total int
	inc   *core.Incremental

	// owners caches ObjID → owning partition (lazily filled from Owner;
	// -1 = unresolved). Worker-confined.
	owners []int32

	// pend accumulates the edge records the sink observed since the last
	// flush; buf is the encode scratch. Worker-confined.
	pend []wire.SGEdge
	buf  []byte

	// applied counts events this partition has applied (post-filter);
	// written by the worker, read by Stats.
	applied atomic.Int64
}

// Certifier is the partitioned certification subsystem: P partitions,
// each streaming the log through its own core.Incremental, exchanging
// edge batches with the composer that maintains the global graph and the
// commit watermark.
//
// Lock order: Certifier.mu, then Config.Lock (matching the server's
// certifier.mu → Server.mu order). Never the reverse.
type Certifier struct {
	cfg   Config
	tr    *tname.Tree
	parts []*partition

	// start is the log index the workers stream from — 0 for a fresh
	// system, the primed length after Prime. Written before Start.
	start int

	mu   sync.Mutex
	cond *sync.Cond

	g *core.Composer //sgvet:guardedby mu

	// origin records which partition first delivered each edge record;
	// a second delivery from a different partition is a cross-partition
	// exchange (counted in cross).
	origin map[wire.SGEdge]int32 //sgvet:guardedby mu

	// upTo[p] is the exclusive event bound partition p has delivered;
	// watermark is min over partitions, the certified frontier. After
	// the last worker retires the watermark jumps to MaxInt so pending
	// waiters drain, mirroring the single certifier's close.
	upTo      []int //sgvet:guardedby mu
	watermark int   //sgvet:guardedby mu
	live      int   //sgvet:guardedby mu

	// cyclic latches the composed graph's first cycle; cycleAt is the
	// last watermark published while acyclic — every event before it was
	// covered by an acyclic composed prefix, everything at or after is
	// refused. Conservative by at most the compose lag; the single
	// certifier pins the exact violating index instead.
	cyclic  bool //sgvet:guardedby mu
	cycleAt int  //sgvet:guardedby mu

	delivered []int64 //sgvet:guardedby mu
	cross     []int64 //sgvet:guardedby mu

	// scratch is the decode-side batch, its Edges array recycled across
	// deliveries.
	scratch wire.EdgeBatch //sgvet:guardedby mu

	wg sync.WaitGroup
}

// New builds a partitioned certifier over the given system. No goroutines
// start until Start.
func New(cfg Config) *Certifier {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.Hooks == nil {
		cfg.Hooks = nopHooks{}
	}
	c := &Certifier{
		cfg:       cfg,
		tr:        cfg.Tree,
		g:         core.NewComposer(cfg.Tree),
		origin:    make(map[wire.SGEdge]int32),
		upTo:      make([]int, cfg.Partitions),
		delivered: make([]int64, cfg.Partitions),
		cross:     make([]int64, cfg.Partitions),
	}
	c.cond = sync.NewCond(&c.mu)
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

// Partitions returns P.
func (c *Certifier) Partitions() int { return len(c.parts) }

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

// applyOne routes one log event through the partition filter and into the
// partition's checker: access REQUEST_COMMITs belong to their object's
// owner alone, everything else is broadcast. This is the per-event apply
// path; the caller holds Config.Lock.
//
//sgvet:hotpath
func (p *partition) applyOne(tr *tname.Tree, e event.Event) {
	if e.Kind == event.RequestCommit && tr.IsAccess(e.Tx) &&
		p.ownerOf(tr, tr.AccessObject(e.Tx)) != p.id {
		return
	}
	p.inc.Append(e)
	p.applied.Add(1)
}

// Prime feeds a recovered or generated behavior through every partition
// synchronously — no goroutines, no locks — then flushes each partition's
// edges so the composed graph and watermark cover all of b. Workers
// started afterwards stream from len(b).
func (c *Certifier) Prime(b event.Behavior) {
	for _, p := range c.parts {
		for _, e := range b {
			p.applyOne(c.tr, e)
		}
		c.flush(p, len(b), nil)
	}
	c.start = len(b)
}

// Start spawns the partition workers; Config.Source and Config.Lock must
// be set. Call at most once.
func (c *Certifier) Start() {
	if c.cfg.Source == nil || c.cfg.Lock == nil {
		panic("part: Start needs a Source and a Lock")
	}
	c.mu.Lock()
	c.live = len(c.parts)
	c.mu.Unlock()
	c.wg.Add(len(c.parts))
	for _, p := range c.parts {
		go c.worker(p)
	}
}

// worker streams the log through one partition. Each locked run is
// bounded by the hooks; the partition's batch — edges and bound — is
// flushed after every run and before any blocking in CertApply, so the
// composer's watermark tracks a stalled partition's frontier exactly.
func (c *Certifier) worker(p *partition) {
	defer c.wg.Done()
	var buf event.Behavior
	processed := c.start
	for {
		batch, ok := c.cfg.Source(processed, buf)
		if !ok {
			c.retire()
			return
		}
		buf = batch
		for off := 0; off < len(batch); {
			c.cfg.Hooks.CertApply(p.id, processed+off)
			n := c.cfg.Hooks.CertBatch(p.id, processed+off, len(batch)-off)
			if n < 1 {
				n = 1
			}
			if rem := len(batch) - off; n > rem {
				n = rem
			}
			c.cfg.Lock.Lock()
			for _, e := range batch[off : off+n] {
				p.applyOne(c.tr, e)
			}
			c.cfg.Lock.Unlock()
			off += n
			c.flush(p, processed+off, c.cfg.Lock)
		}
		processed += len(batch)
	}
}

// maxBatch is the most edge records one batch carries — the cap the
// decoder enforces. A variable only so tests can lower it: a backlog past
// the real cap takes a million edges to build.
var maxBatch = wire.MaxEdgeBatch

// flush delivers the partition's pending edges and its new event bound to
// the composer, split into batches of at most maxBatch records (a primed
// log's whole backlog is pending at once). Only the last batch carries
// upTo; the earlier ones claim no events (bound 0 — deliver only ever
// raises a bound), so the watermark never passes events whose edges are
// still in flight.
func (c *Certifier) flush(p *partition, upTo int, lk sync.Locker) {
	rest := p.pend
	for len(rest) > maxBatch {
		c.deliver(p.encode(0, rest[:maxBatch]), lk)
		rest = rest[maxBatch:]
	}
	c.deliver(p.encode(upTo, rest), lk)
	p.pend = p.pend[:0]
}

// encode freezes edge records and a bound as one wire.EdgeBatch payload.
// The round trip through the codec is deliberate: the encoded form is the
// exchange protocol.
func (p *partition) encode(upTo int, edges []wire.SGEdge) []byte {
	p.buf = wire.AppendEdgeBatch(p.buf[:0], wire.EdgeBatch{Part: p.id, UpTo: upTo, Edges: edges})
	return p.buf
}

// deliver parses one edge batch and applies it to the composed graph
// atomically with its bound — the soundness invariant: the watermark
// never advances over events whose edges are not yet composed. lk, when
// non-nil, is held around the tree-reading composition (the live path);
// Prime passes nil. A decode failure is a protocol bug between in-process
// peers, hence a panic.
func (c *Certifier) deliver(payload []byte, lk sync.Locker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := wire.ParseEdgeBatch(payload, c.scratch)
	c.scratch = b
	if err != nil {
		panic(fmt.Sprintf("part: malformed edge batch: %v", err))
	}
	if b.Part < 0 || b.Part >= len(c.parts) {
		panic(fmt.Sprintf("part: edge batch from unknown partition %d", b.Part))
	}
	if len(b.Edges) > 0 {
		if lk != nil {
			lk.Lock()
		}
		n := c.tr.NumTx()
		for _, e := range b.Edges {
			c.delivered[b.Part]++
			if int(e.Parent) >= n || int(e.From) >= n || int(e.To) >= n {
				panic(fmt.Sprintf("part: edge batch names unknown transaction (%d/%d/%d of %d)",
					e.Parent, e.From, e.To, n))
			}
			if first, dup := c.origin[e]; dup {
				if int(first) != b.Part {
					c.cross[b.Part]++
				}
			} else {
				c.origin[e] = int32(b.Part)
			}
			c.g.AddEdge(tname.TxID(e.Parent), tname.TxID(e.From), tname.TxID(e.To), core.EdgeKind(e.Kind))
		}
		if lk != nil {
			lk.Unlock()
		}
		if c.g.Cyclic() && !c.cyclic {
			c.cyclic = true
			c.cycleAt = c.watermark
		}
	}
	if b.UpTo > c.upTo[b.Part] {
		c.upTo[b.Part] = b.UpTo
	}
	w := c.upTo[0]
	for _, u := range c.upTo[1:] {
		if u < w {
			w = u
		}
	}
	if w > c.watermark {
		c.watermark = w
		c.cond.Broadcast()
	}
	if c.cfg.ObserveLag != nil {
		c.cfg.ObserveLag(b.Part, c.upTo[b.Part]-c.watermark)
	}
}

// retire marks one worker done; when the last retires the watermark jumps
// past every possible sequence so pending waiters drain.
func (c *Certifier) retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	if c.live == 0 {
		c.watermark = math.MaxInt
		c.cond.Broadcast()
	}
}

// WaitDrained blocks until every worker has consumed the closed log and
// retired.
func (c *Certifier) WaitDrained() { c.wg.Wait() }

// WaitCertified blocks until the composed watermark passes seq and
// reports whether an acyclic composed prefix covers it. false means the
// composed graph acquired a cycle at or before the covering frontier —
// the commit must be refused; CycleBound and CycleCertificate describe
// the rejection.
func (c *Certifier) WaitCertified(seq int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.watermark <= seq {
		c.cond.Wait()
	}
	return !(c.cyclic && c.cycleAt <= seq)
}

// State reports (watermark, acyclic) for the verdict request.
func (c *Certifier) State() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watermark, !c.cyclic
}

// CycleBound returns the refusal frontier: commits at or after it are
// rejected. Meaningful only once State reports a cycle.
func (c *Certifier) CycleBound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cycleAt
}

// Cyclic reports whether the composed graph has latched a cycle.
func (c *Certifier) Cyclic() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cyclic
}

// Counts reports the composed graph's size: parents, nodes, edge records.
func (c *Certifier) Counts() (parents, nodes, edges int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.g.Counts()
}

// Snapshot materializes the composed SG; byte-identical (as DOT) to a
// batch Build over the certified log. Callers rendering it take the tree
// lock themselves.
func (c *Certifier) Snapshot() *core.SG {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.g.Snapshot()
}

// CycleCertificate freezes the composed graph and extracts its cycle, or
// nil while acyclic.
func (c *Certifier) CycleCertificate() *core.Cycle {
	_, cyc := c.Snapshot().Acyclicity()
	return cyc
}

// Stats is one partition's counters for the metrics endpoint.
type Stats struct {
	// EventsApplied counts log events the partition applied after the
	// ownership filter.
	EventsApplied int64
	// EdgesDelivered counts edge records the partition shipped to the
	// composer.
	EdgesDelivered int64
	// CrossEdges counts delivered records another partition had already
	// derived — the overlap the edge-exchange protocol exists to ship.
	CrossEdges int64
	// Bound is the partition's delivered event frontier.
	Bound int
}

// PartStats returns per-partition counters, indexed by partition.
func (c *Certifier) PartStats() []Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Stats, len(c.parts))
	for i, p := range c.parts {
		out[i] = Stats{
			EventsApplied:  p.applied.Load(),
			EdgesDelivered: c.delivered[i],
			CrossEdges:     c.cross[i],
			Bound:          c.upTo[i],
		}
	}
	return out
}

// Reset rewinds the certifier to the empty log over the same tree,
// retaining every backing array; only valid with no workers running. A
// long sequence of Reset+Prime cycles allocates nothing in steady state.
func (c *Certifier) Reset() {
	for _, p := range c.parts {
		p.inc.Reset()
		p.pend = p.pend[:0]
		p.applied.Store(0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.g.Reset()
	clear(c.origin)
	for i := range c.upTo {
		c.upTo[i] = 0
		c.delivered[i] = 0
		c.cross[i] = 0
	}
	c.watermark = 0
	c.cyclic = false
	c.cycleAt = 0
	c.start = 0
}
