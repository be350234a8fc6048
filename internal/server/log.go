package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
)

// eventLog is the totally-ordered atomic event log of the server: every
// session appends its serial and inform events here under one mutex, so the
// log order is the behavior β the certifier judges. The order is produced by
// the race itself — whichever session wins the mutex appends first — and the
// per-object/per-session emission discipline (see session.go) guarantees the
// result is a generic behavior.
//
// β only grows at the end, so the log is a list of fixed-size chunks rather
// than one slice: growing it allocates one small chunk per logChunk events
// and never copies or rewrites an event already published, which lets
// readers walk the published events in place (view).
type eventLog struct {
	mu sync.Mutex
	// chunks holds event i at chunks[i/logChunk][i%logChunk]; n counts the
	// events appended. Every chunk but the last is full.
	chunks []*[logChunk]event.Event //sgvet:guardedby mu
	n      int                      //sgvet:guardedby mu

	// wal, when set, receives every atomic append as one WalEvents record —
	// written under mu, so the durable record order IS the log order.
	// Recovery installs it after the durable prefix, before any session
	// exists.
	wal    *walWriter //sgvet:guardedby mu
	walBuf []byte     //sgvet:guardedby mu
}

// logChunk is the number of events in one chunk. It keeps a chunk under the
// runtime's 32 KiB small-object limit, and it is not 512: an object over
// 512 B that holds pointers carries an 8 B header, so 512 × 48 B would
// round up to the 27 264 B size class, where 511 × 48 B + 8 B fills the
// 24 576 B one (TestLogAppendAllocatesOnce holds the bytes to the events').
const logChunk = 511

// append atomically appends evs and returns the log index of the first one.
// A write failure is sticky in the writer and surfaces at the next walSync
// or WALError, which is where the commit path refuses to acknowledge.
//
//sgvet:hotpath
func (l *eventLog) append(evs ...event.Event) int {
	l.mu.Lock()
	base := l.n
	for rest := evs; len(rest) > 0; {
		if l.n == len(l.chunks)*logChunk {
			l.grow()
		}
		k := copy(l.chunks[l.n/logChunk][l.n%logChunk:], rest)
		l.n += k
		rest = rest[k:]
	}
	if l.wal != nil {
		l.walBuf = event.AppendWalEvents(l.walBuf[:0], evs...)
		l.wal.appendRecord(l.walBuf)
	}
	l.mu.Unlock()
	return base
}

// grow adds an empty chunk. It is kept out of line so that the append
// path's one allocation stays here and the hotalloc gate can hold append to
// zero.
//
//go:noinline
//sgvet:holds l.mu
func (l *eventLog) grow() {
	l.chunks = append(l.chunks, new([logChunk]event.Event))
}

// len reports the current log length.
//
//sgvet:hotpath
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// view returns the chunk headers and the log length. Chunks are never moved
// and an event below the length is never rewritten, so the caller reads
// events [0, n) without mu: taking n under mu orders those reads after the
// appends that wrote them.
//
//sgvet:hotpath
func (l *eventLog) view() ([]*[logChunk]event.Event, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chunks, l.n
}

// snapshot copies the current log into one contiguous behavior.
func (l *eventLog) snapshot() event.Behavior {
	chunks, n := l.view()
	b := make(event.Behavior, 0, n)
	for i := 0; i < n; i += logChunk {
		b = append(b, chunks[i/logChunk][:min(logChunk, n-i)]...)
	}
	return b
}

// certifier runs core.Incremental behind the event log, with no goroutine
// of its own: whoever needs the watermark — a top-level COMMIT, a VERDICT,
// Shutdown, recovery — applies the uncertified suffix itself under mu
// (flat combining, the rule walWriter.sync also syncs by), so a commit
// response carries an acyclic-SG(β)-prefix guarantee without a hand-off.
// Prefix-monotonicity of the SG edge set (see core.Incremental) makes the
// online verdict agree with the offline batch verdict on every extension,
// which is why certifying behind the log, in runs of any length, is sound.
// Final and Recover hold its engine to the batch construction record for
// record (core.Checker.CheckAgainst), without materializing its graph.
//
// The mvto snapshot store is fed in the same pass, so the snapshot cut
// equals the watermark: a commit acknowledged to one client is visible to
// every read-only BEGIN that follows. Readers of the watermark, the verdict
// and the gauges use atomics and never take mu.
type certifier struct {
	srv  *Server
	snap *snapshotStore // nil except on the mvto backend

	// mu serializes the combiners; the engine is theirs.
	mu  sync.Mutex
	inc *core.Incremental //sgvet:guardedby mu

	// watermark is the certified log prefix; it only grows, under mu.
	watermark atomic.Int64
	// rejected is the first cycle, stored before the watermark that
	// covers it is published.
	rejected atomic.Pointer[rejection]

	// Live gauges.
	parents, nodes, edges atomic.Int64
}

// rejection is the sticky verdict: the cycle certificate and the log
// index of the first event whose prefix made SG(β) cyclic.
type rejection struct {
	cyc *core.Cycle
	at  int
}

//sgvet:ignore[lockguard] construction: runs inside newServer before the server is shared with any goroutine
func newCertifier(s *Server) *certifier {
	return &certifier{srv: s, inc: core.NewIncremental(s.tr)}
}

// combine certifies the log through index target-1, reading the events in
// place in the log's chunks. The suffix is applied in runs — one tree
// read-lock acquisition, one gauge refresh and one watermark publish per
// run — whose length Hooks.CertApply bounds, so a harness can cut a run at
// its stall point and block there; a run may span a chunk boundary.
// Judging a run's end prefix certifies every prefix inside it, and
// Incremental records the exact index of the first rejection however the
// appends were grouped. No run starts at or past target, so a combiner
// never waits on a stall beyond its own commit.
//
//sgvet:holds c.mu
func (c *certifier) combine(target int) {
	wm := int(c.watermark.Load())
	if wm >= target {
		return
	}
	chunks, logLen := c.srv.log.view()
	for wm < target {
		n := c.srv.opts.Hooks.CertApply(wm, logLen-wm)
		n = max(1, min(n, logLen-wm))
		c.srv.mu.RLock()
		for i := wm; i < wm+n; i++ {
			e := chunks[i/logChunk][i%logChunk]
			c.inc.Append(e)
			if c.snap != nil {
				c.snap.apply(i, e)
			}
		}
		p, nn, ed := c.inc.Counts()
		c.srv.mu.RUnlock()
		c.parents.Store(int64(p))
		c.nodes.Store(int64(nn))
		c.edges.Store(int64(ed))
		wm += n
		if c.rejected.Load() == nil {
			if cyc, at := c.inc.Rejected(); cyc != nil {
				c.rejected.Store(&rejection{cyc: cyc, at: at})
			}
		}
		c.watermark.Store(int64(wm))
	}
}

// waitCertified returns once the watermark covers seq: nil when every
// prefix up to seq has an acyclic SG, or the cycle certificate error from
// the first violating prefix at or before seq. A short watermark is
// extended by this caller, behind any combiner already holding mu.
func (c *certifier) waitCertified(seq int) error {
	if int(c.watermark.Load()) <= seq {
		c.mu.Lock()
		c.combine(seq + 1)
		c.mu.Unlock()
	}
	if r := c.rejected.Load(); r != nil && r.at <= seq {
		c.srv.mu.RLock()
		msg := r.cyc.Format(c.srv.tr)
		c.srv.mu.RUnlock()
		return fmt.Errorf("server: SG(β) acquired a cycle at log event %d: %s", r.at, msg)
	}
	return nil
}

// catchUp certifies the whole current log.
func (c *certifier) catchUp() {
	if n := c.srv.log.len(); n > 0 {
		_ = c.waitCertified(n - 1) // the verdict is read through state
	}
}

// state reports (watermark, acyclic through it) without combining, so a
// metrics scrape never waits behind a certifier stall (nor does a snapshot
// cut, which reads the same two atomics).
func (c *certifier) state() (int, bool) {
	wm := int(c.watermark.Load())
	r := c.rejected.Load()
	return wm, r == nil || r.at >= wm
}

// prime certifies the recovered log before any session exists and refuses
// it when SG(β) is cyclic.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (c *certifier) prime() error {
	c.catchUp()
	if r := c.rejected.Load(); r != nil {
		return fmt.Errorf("server: recovery rejected wal: SG(β) cyclic at durable event %d: %s", r.at, r.cyc.Format(c.srv.tr))
	}
	return nil
}

func (c *certifier) gauges() (int64, int64, int64) {
	return c.parents.Load(), c.nodes.Load(), c.edges.Load()
}
