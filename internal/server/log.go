package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
)

// defaultLogShards is the append-shard count when Options.LogShards is 0.
const defaultLogShards = 4

// pendEntry is one atomic append parked in a shard, waiting for the merger:
// base is its global log index (the ticket), evs the events of the append.
type pendEntry struct {
	base int
	evs  []event.Event
}

// logShard is one striped append buffer. Sessions hash to a shard by id, so
// two sessions on different shards never contend on an append mutex; the
// global order is fixed by the ticket taken inside the shard's critical
// section, not by who wins a shared lock.
type logShard struct {
	idx int

	mu   sync.Mutex
	q    []pendEntry //sgvet:guardedby mu
	head int         //sgvet:guardedby mu
	// free recycles the event slices of merged entries back to appenders,
	// keeping the steady-state append path allocation-free.
	free [][]event.Event //sgvet:guardedby mu

	// appends counts events ticketed through this shard (metrics); the
	// shard counters sum to the global log length.
	appends atomic.Int64
}

// defEntry is one pending WAL definition record: seq is its intern order,
// evbase the global event count at intern time. The merger must flush it
// before merging any event at index ≥ evbase, which preserves the WAL's
// definition-before-use order.
type defEntry struct {
	seq    int
	evbase int
	rec    []byte
}

// shardedLog is the totally-ordered atomic event log of the server, striped
// for append concurrency. Appenders take a global ticket (a fetch-add on
// evSeq) inside their shard's critical section — so the ticket order is an
// order the single-mutex log could have produced, and every append is
// inserted into its shard queue already holding its final log index. A
// single merger goroutine stitches the shards back into the totally-ordered
// merged prefix in strict ticket order, writes each entry's WAL record, and
// feeds the certifier. The emission discipline of session.go is unchanged
// (tickets for REQUEST_COMMIT/informs are taken under the object mutex, and
// a session's own events ticket in program order), so the merged order is
// still a generic behavior; see DESIGN.md §13 for the full argument.
type shardedLog struct {
	shards []*logShard
	// evSeq is the next global ticket == the number of events appended.
	evSeq atomic.Int64

	// Pending definition records, fed under the tree write lock (so defSeq
	// is contiguous and evbase monotonic).
	defMu   sync.Mutex
	defSeq  int        //sgvet:guardedby defMu
	defs    []defEntry //sgvet:guardedby defMu
	defHead int        //sgvet:guardedby defMu
	defFree [][]byte   //sgvet:guardedby defMu

	// wake is the merger's doorbell: one buffered token is enough, the
	// merger rescans everything each time it wakes.
	wake chan struct{}

	// Merged state: the totally-ordered prefix the certifier consumes.
	mu      sync.Mutex
	cond    *sync.Cond
	events  event.Behavior //sgvet:guardedby mu
	closing bool           //sgvet:guardedby mu
	closed  bool           //sgvet:guardedby mu

	// wal, when set, receives every merged entry as one WalEvents record —
	// written by the merger in merged order, so the durable record order IS
	// the log order. Recovery installs it before the merger starts.
	wal    *walWriter
	walBuf []byte // merger-owned scratch

	// live flips to true when the merger goroutine starts; before that
	// (construction, recovery) appends drain inline on the caller.
	live       bool
	mergerDone chan struct{}

	hooks   Hooks
	metrics *Metrics
}

func newShardedLog(n int, hooks Hooks, m *Metrics) *shardedLog {
	if n < 1 {
		n = 1
	}
	l := &shardedLog{
		shards:     make([]*logShard, n),
		wake:       make(chan struct{}, 1),
		mergerDone: make(chan struct{}),
		hooks:      hooks,
		metrics:    m,
	}
	for i := range l.shards {
		l.shards[i] = &logShard{idx: i}
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// shardFor picks the session's shard.
func (l *shardedLog) shardFor(sess int64) *logShard {
	return l.shards[int(uint64(sess)%uint64(len(l.shards)))]
}

// append atomically appends evs through sh and returns the global log index
// of the first one. The ticket is taken with sh.mu held, so an entry is in
// its shard queue by the time any later ticket exists — the merger never has
// to wait on an unannounced index — and the caller's enclosing critical
// section (object mutex, session program order) fixes the ticket order
// exactly as it fixed the append order of the single-mutex log.
//
//sgvet:hotpath
func (l *shardedLog) append(sh *logShard, evs ...event.Event) int {
	n := len(evs)
	sh.mu.Lock()
	base := int(l.evSeq.Add(int64(n))) - n
	var dst []event.Event
	if k := len(sh.free); k > 0 {
		dst = sh.free[k-1][:0]
		sh.free = sh.free[:k-1]
	}
	dst = append(dst, evs...)
	sh.q = append(sh.q, pendEntry{base: base, evs: dst})
	sh.mu.Unlock()
	sh.appends.Add(int64(n))
	if l.live {
		l.ring()
	} else {
		l.mergePending()
	}
	return base
}

// appendDef queues one WAL definition record, encoded by enc into a pooled
// buffer. Callers hold the tree write lock, so intern order == queue order
// and the merger flushes definitions in exactly the order recovery's
// sequential-ID replay demands.
func (l *shardedLog) appendDef(enc func([]byte) []byte) {
	l.defMu.Lock()
	var rec []byte
	if k := len(l.defFree); k > 0 {
		rec = l.defFree[k-1][:0]
		l.defFree = l.defFree[:k-1]
	}
	rec = enc(rec)
	l.defs = append(l.defs, defEntry{seq: l.defSeq, evbase: int(l.evSeq.Load()), rec: rec})
	l.defSeq++
	l.defMu.Unlock()
	if l.live {
		l.ring()
	} else {
		l.mergePending()
	}
}

// ring rings the merger's doorbell (non-blocking; one token suffices).
//
//sgvet:hotpath
func (l *shardedLog) ring() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// startMerger starts the background merger. Everything appended before this
// call has been drained inline; everything after goes through the merger.
// Must be called before any session goroutine exists.
func (l *shardedLog) startMerger() {
	l.live = true
	go l.mergeLoop()
}

// mergeLoop drains eligible entries whenever the doorbell rings, and exits
// once the log is closing and fully merged.
func (l *shardedLog) mergeLoop() {
	defer close(l.mergerDone)
	for {
		if l.metrics != nil {
			if lag := int(l.evSeq.Load()) - l.mergedLen(); lag > 0 {
				l.metrics.MergeLag.ObserveVal(int64(lag))
			}
		}
		if n := l.mergePending(); n > 0 {
			if l.metrics != nil {
				l.metrics.MergeBatch.ObserveVal(int64(n))
			}
			continue
		}
		l.defMu.Lock()
		defsPending := l.defHead < len(l.defs)
		l.defMu.Unlock()
		l.mu.Lock()
		done := l.closing && !defsPending && len(l.events) == int(l.evSeq.Load())
		if done {
			l.closed = true
		}
		l.mu.Unlock()
		if done {
			l.cond.Broadcast()
			return
		}
		<-l.wake
	}
}

// mergePending merges every entry that is currently eligible — strict
// ticket order, flushing pending definition records ahead of the events
// that may reference them — and returns how many entries it merged. It is
// the merger's whole step function, and doubles as the inline drain used
// before the merger starts (recovery, construction), where it runs on the
// single constructing goroutine.
func (l *shardedLog) mergePending() int {
	merged := 0
	next := l.mergedLen()
	for {
		// Pick the entry first and flush definitions second: a session
		// interns a name and only then appends the event that uses it, so
		// every definition an entry needs is queued by the time the entry
		// is visible. Flushing first would let a name interned between the
		// flush and the pick reach the WAL after its first use, and
		// recovery cuts the log at a record it cannot resolve.
		sh, e, ok := l.eligible(next)
		l.flushDefs(next)
		if !ok {
			return merged
		}
		// The stall hook runs with no log lock held, so a harness-stalled
		// shard cannot wedge appenders or waiters on already-merged events.
		l.hooks.MergeApply(sh.idx, e.base)
		sh.mu.Lock()
		sh.q[sh.head] = pendEntry{}
		sh.head++
		if sh.head == len(sh.q) {
			sh.q = sh.q[:0]
			sh.head = 0
		}
		sh.mu.Unlock()
		if l.wal != nil {
			// One WalEvents record per atomic append, in merged order.
			l.walBuf = event.AppendWalEvents(l.walBuf[:0], e.evs...)
			l.wal.appendRecord(l.walBuf)
		}
		l.mu.Lock()
		l.events = append(l.events, e.evs...)
		next = len(l.events)
		l.mu.Unlock()
		l.cond.Broadcast()
		sh.mu.Lock()
		sh.free = append(sh.free, e.evs[:0])
		sh.mu.Unlock()
		merged++
	}
}

// eligible finds the shard whose head entry holds the next ticket. At most
// one shard can: tickets are unique and per-shard queues are sorted.
func (l *shardedLog) eligible(next int) (*logShard, pendEntry, bool) {
	for _, sh := range l.shards {
		sh.mu.Lock()
		if sh.head < len(sh.q) && sh.q[sh.head].base == next {
			e := sh.q[sh.head]
			sh.mu.Unlock()
			return sh, e, true
		}
		sh.mu.Unlock()
	}
	return nil, pendEntry{}, false
}

// flushDefs writes every pending definition record whose evbase ≤ next to
// the WAL, in intern order. A definition interned before event index i has
// evbase ≤ i, so flushing before merging the event at next keeps every
// record's names defined by the time recovery replays it.
func (l *shardedLog) flushDefs(next int) {
	l.defMu.Lock()
	for l.defHead < len(l.defs) && l.defs[l.defHead].evbase <= next {
		d := l.defs[l.defHead]
		if l.wal != nil {
			l.wal.appendRecord(d.rec)
		}
		l.defFree = append(l.defFree, d.rec[:0])
		l.defs[l.defHead] = defEntry{}
		l.defHead++
	}
	if l.defHead == len(l.defs) {
		l.defs = l.defs[:0]
		l.defHead = 0
	}
	l.defMu.Unlock()
}

// pendingIn reports the smallest unmerged ticket owned by shard that is
// ≥ from, or -1. The simulator uses it to decide deterministically whether
// a wait on the merged watermark will block behind a stalled shard.
func (l *shardedLog) pendingIn(shard, from int) int {
	sh := l.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := sh.head; i < len(sh.q); i++ {
		if sh.q[i].base >= from {
			return sh.q[i].base
		}
	}
	return -1
}

// len reports how many events have been appended (ticketed).
//
//sgvet:hotpath
func (l *shardedLog) len() int { return int(l.evSeq.Load()) }

// mergedLen reports how many events the merger has placed in total order.
func (l *shardedLog) mergedLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// waitMerged blocks until the merged prefix covers [0, n) or the log is
// closed. Sessions call it before a durability fsync, so every record of
// the completion is in the WAL writer before the sync — the group-commit
// cohort invariant of the single-mutex log, restored under sharding.
//
//sgvet:hotpath
func (l *shardedLog) waitMerged(n int) {
	l.mu.Lock()
	for len(l.events) < n && !l.closed {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// snapshot copies the current merged log. Callers that need the complete
// log (Final, recovery audits) run after the merger has drained.
func (l *shardedLog) snapshot() event.Behavior {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(event.Behavior(nil), l.events...)
}

// prime seeds the merged prefix with a recovered behavior; recovery calls
// it single-threaded before the merger starts.
func (l *shardedLog) prime(b event.Behavior) {
	l.mu.Lock()
	l.events = b
	l.mu.Unlock()
	l.evSeq.Store(int64(len(b)))
}

// close marks the log complete, waits for the merger to drain every pending
// entry (appenders are gone: Shutdown/Kill wait for sessions first), and
// wakes the certifier so it can drain and exit.
func (l *shardedLog) close() {
	l.mu.Lock()
	l.closing = true
	l.mu.Unlock()
	if !l.live {
		l.mergePending()
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.cond.Broadcast()
		return
	}
	l.ring()
	<-l.mergerDone
}

// waitBeyond blocks until the merged log extends past n (returning a copy of
// the new suffix in buf) or is closed with nothing left (returning ok=false).
//
//sgvet:hotpath
func (l *shardedLog) waitBeyond(n int, buf event.Behavior) (event.Behavior, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.events) <= n && !l.closed {
		l.cond.Wait()
	}
	if len(l.events) <= n {
		return nil, false
	}
	buf = append(buf[:0], l.events[n:]...)
	return buf, true
}

// certBackend is the seam between the server and its certification
// engine. Two implementations exist: the single-goroutine certifier
// below (the default, Options.CertPartitions ≤ 1) and the partitioned
// multi-certifier of internal/part (partcert.go). Both gate every
// commit ack on an acyclic-SG(β)-prefix covering its COMMIT event and
// both produce a final snapshot byte-identical to the batch check.
type certBackend interface {
	// prime replays a recovered log synchronously — before any session
	// or certification goroutine exists — and returns the recovery
	// rejection error if the durable prefix is already cyclic.
	prime(full event.Behavior) error
	// start launches the certification goroutine(s) after the log is
	// seeded or primed; waitDone blocks until the closed log has fully
	// drained through them and they have exited.
	start()
	waitDone()
	// waitCertified blocks until the certified watermark passes seq,
	// returning nil when an acyclic SG(β) prefix covers it and the
	// cycle-certificate error otherwise.
	waitCertified(seq int) error
	// state reports (watermark, acyclic) for the verdict request.
	state() (watermark int, acyclic bool)
	// gauges reports the live graph size: parents, nodes, edge records.
	gauges() (parents, nodes, edges int64)
	// snapshotSG materializes the online SG for audits and Final.
	snapshotSG() *core.SG
	// metricsInto adds backend-specific keys to the metrics snapshot.
	metricsInto(snap map[string]any)
}

// certifier runs core.Incremental behind the event log: a single goroutine
// consumes the merged log in order and certifies each prefix, so a commit
// response can wait until the watermark covers its COMMIT event and thereby
// carry an acyclic-SG(β)-prefix guarantee. Prefix-monotonicity of the SG
// edge set (see core.Incremental) makes the online verdict agree with the
// offline batch verdict on every extension, which is why certifying behind
// the log is sound.
type certifier struct {
	srv *Server
	inc *core.Incremental

	mu        sync.Mutex
	cond      *sync.Cond
	watermark int         //sgvet:guardedby mu
	cycle     *core.Cycle //sgvet:guardedby mu
	cycleAt   int         //sgvet:guardedby mu

	// Live gauges, readable without the certifier's locks.
	parents, nodes, edges atomic.Int64

	// primed is how many log events Recover replayed synchronously
	// before the loop began; the loop resumes after them.
	primed int

	done chan struct{}
}

//sgvet:ignore[lockguard] construction: runs inside newServer before the server is shared with any goroutine
func newCertifier(s *Server) *certifier {
	c := &certifier{
		srv:     s,
		inc:     core.NewIncremental(s.tr),
		cycleAt: -1,
		done:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// loop consumes the log until it is closed and drained. The tree read lock
// is held while appending (sessions intern names under the write lock).
func (c *certifier) loop() {
	defer close(c.done)
	processed := c.primed
	var buf event.Behavior
	for {
		batch, ok := c.srv.log.waitBeyond(processed, buf)
		if !ok {
			// Closed and drained: release any lingering waiters.
			c.mu.Lock()
			c.watermark = math.MaxInt
			c.mu.Unlock()
			c.cond.Broadcast()
			return
		}
		buf = batch
		// Apply the suffix as runs: one tree read-lock acquisition, one
		// gauge refresh and one watermark publish per run instead of per
		// event. Prefix-monotonicity of the SG edge set makes this sound —
		// judging the run's end prefix certifies every prefix inside it,
		// and Incremental records the exact index of the first rejection
		// regardless of how the appends were grouped. CertBatch lets a
		// harness cut runs at its stall point so batching never crosses
		// one.
		for off := 0; off < len(batch); {
			// The stall hook runs without any server lock held, so a
			// harness-stalled certifier cannot wedge the sessions.
			c.srv.opts.Hooks.CertApply(processed + off)
			n := c.srv.opts.Hooks.CertBatch(processed+off, len(batch)-off)
			if n < 1 {
				n = 1
			} else if n > len(batch)-off {
				n = len(batch) - off
			}
			c.srv.mu.RLock()
			for _, e := range batch[off : off+n] {
				c.inc.Append(e)
			}
			p, nn, ed := c.inc.Counts()
			c.srv.mu.RUnlock()
			c.parents.Store(int64(p))
			c.nodes.Store(int64(nn))
			c.edges.Store(int64(ed))
			off += n

			c.mu.Lock()
			c.watermark = processed + off
			if c.cycle == nil {
				c.cycle, c.cycleAt = c.inc.Rejected()
			}
			c.mu.Unlock()
			c.cond.Broadcast()
		}
		processed += len(batch)
	}
}

// waitCertified blocks until the certifier has consumed the log through seq
// and returns nil when every prefix up to seq has an acyclic SG, or the
// cycle certificate error from the first violating prefix at or before seq.
func (c *certifier) waitCertified(seq int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.watermark <= seq {
		c.cond.Wait()
	}
	if c.cycle != nil && c.cycleAt <= seq {
		c.srv.mu.RLock()
		msg := c.cycle.Format(c.srv.tr)
		c.srv.mu.RUnlock()
		return fmt.Errorf("server: SG(β) acquired a cycle at log event %d: %s", c.cycleAt, msg)
	}
	return nil
}

// state reports (watermark, acyclic) for the verdict request.
func (c *certifier) state() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watermark, c.cycle == nil
}

// prime replays the recovered log through the incremental graph
// synchronously; recovery calls it single-threaded before the loop
// starts, so the loop resumes exactly after the primed prefix.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session or certifier goroutine exists yet
func (c *certifier) prime(full event.Behavior) error {
	for _, e := range full {
		c.inc.Append(e)
	}
	if cyc, at := c.inc.Rejected(); cyc != nil {
		return fmt.Errorf("server: recovery rejected wal: SG(β) cyclic at durable event %d: %s", at, cyc.Format(c.srv.tr))
	}
	p, n, ed := c.inc.Counts()
	c.parents.Store(int64(p))
	c.nodes.Store(int64(n))
	c.edges.Store(int64(ed))
	c.primed = len(full)
	c.mu.Lock()
	c.watermark = len(full)
	c.mu.Unlock()
	return nil
}

func (c *certifier) start()    { go c.loop() }
func (c *certifier) waitDone() { <-c.done }

func (c *certifier) gauges() (int64, int64, int64) {
	return c.parents.Load(), c.nodes.Load(), c.edges.Load()
}

// snapshotSG is called single-threaded (recovery) or post-drain (Final),
// so the incremental graph is quiescent.
func (c *certifier) snapshotSG() *core.SG { return c.inc.Snapshot() }

func (c *certifier) metricsInto(snap map[string]any) {
	snap["cert_partitions"] = 1
}
