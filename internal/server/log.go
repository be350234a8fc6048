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
type eventLog struct {
	mu     sync.Mutex
	events event.Behavior //sgvet:guardedby mu

	// wal, when set, receives every atomic append as one WalEvents record —
	// written under mu, so the durable record order IS the log order.
	// Recovery installs it (and seeds events with the durable prefix)
	// before any session exists.
	wal    *walWriter //sgvet:guardedby mu
	walBuf []byte     //sgvet:guardedby mu
}

// append atomically appends evs and returns the log index of the first one.
// A write failure is sticky in the writer and surfaces at the next walSync
// or WALError, which is where the commit path refuses to acknowledge.
//
//sgvet:hotpath
func (l *eventLog) append(evs ...event.Event) int {
	l.mu.Lock()
	base := len(l.events)
	l.events = append(l.events, evs...)
	if l.wal != nil {
		l.walBuf = event.AppendWalEvents(l.walBuf[:0], evs...)
		l.wal.appendRecord(l.walBuf)
	}
	l.mu.Unlock()
	return base
}

// len reports the current log length.
//
//sgvet:hotpath
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// snapshot copies the current log.
func (l *eventLog) snapshot() event.Behavior {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(event.Behavior(nil), l.events...)
}

// suffix copies the log from index n on into buf.
//
//sgvet:hotpath
func (l *eventLog) suffix(n int, buf event.Behavior) event.Behavior {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(buf[:0], l.events[n:]...)
}

// certifier runs core.Incremental behind the event log, with no goroutine
// of its own: whoever needs the watermark — a top-level COMMIT, a VERDICT,
// Shutdown, recovery — applies the uncertified suffix itself under mu
// (flat combining, the leader rule of the group committer), so a commit
// response carries an acyclic-SG(β)-prefix guarantee without a hand-off.
// Prefix-monotonicity of the SG edge set (see core.Incremental) makes the
// online verdict agree with the offline batch verdict on every extension,
// which is why certifying behind the log, in runs of any length, is sound.
// Final and Recover hold its snapshot byte-identical to the batch check.
//
// The mvto snapshot store is fed in the same pass, so the snapshot cut
// equals the watermark: a commit acknowledged to one client is visible to
// every read-only BEGIN that follows. Readers of the watermark, the verdict
// and the gauges use atomics and never take mu.
type certifier struct {
	srv  *Server
	snap *snapshotStore // nil unless the backend serves snapshots

	// mu serializes the combiners; the engine and the copy buffer are
	// theirs.
	mu  sync.Mutex
	inc *core.Incremental //sgvet:guardedby mu
	buf event.Behavior    //sgvet:guardedby mu

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
func newCertifier(s *Server, snap *snapshotStore) *certifier {
	return &certifier{srv: s, snap: snap, inc: core.NewIncremental(s.tr)}
}

// combine certifies the log through index target-1. The suffix is applied
// in runs — one tree read-lock acquisition, one gauge refresh and one
// watermark publish per run — whose length Hooks.CertApply bounds, so a
// harness can cut a run at its stall point and block there. Judging a
// run's end prefix certifies every prefix inside it, and Incremental
// records the exact index of the first rejection however the appends were
// grouped. No run starts at or past target, so a combiner never waits on
// a stall beyond its own commit.
//
//sgvet:holds c.mu
func (c *certifier) combine(target int) {
	wm := int(c.watermark.Load())
	if wm >= target {
		return
	}
	c.buf = c.srv.log.suffix(wm, c.buf)
	for off := 0; wm < target; {
		n := c.srv.opts.Hooks.CertApply(wm, len(c.buf)-off)
		n = max(1, min(n, len(c.buf)-off))
		c.srv.mu.RLock()
		for i, e := range c.buf[off : off+n] {
			c.inc.Append(e)
			if c.snap != nil {
				c.snap.apply(wm+i, e)
			}
		}
		p, nn, ed := c.inc.Counts()
		c.srv.mu.RUnlock()
		c.parents.Store(int64(p))
		c.nodes.Store(int64(nn))
		c.edges.Store(int64(ed))
		off += n
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
// metrics scrape or a snapshot cut never waits behind a certifier stall.
func (c *certifier) state() (int, bool) {
	wm := int(c.watermark.Load())
	r := c.rejected.Load()
	return wm, r == nil || r.at >= wm
}

// prime certifies the recovered log before any session exists and refuses
// it when SG(β) is cyclic. The copy buffer is dropped: it held the whole
// recovered log, where a commit's suffix is a few events.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (c *certifier) prime() error {
	c.catchUp()
	c.mu.Lock()
	c.buf = nil
	c.mu.Unlock()
	if r := c.rejected.Load(); r != nil {
		return fmt.Errorf("server: recovery rejected wal: SG(β) cyclic at durable event %d: %s", r.at, r.cyc.Format(c.srv.tr))
	}
	return nil
}

func (c *certifier) gauges() (int64, int64, int64) {
	return c.parents.Load(), c.nodes.Load(), c.edges.Load()
}

// snapshotSG is called single-threaded (recovery) or post-drain (Final),
// so the incremental graph is quiescent.
//
//sgvet:ignore[lockguard] recovery or post-drain: no combiner can run
func (c *certifier) snapshotSG() *core.SG { return c.inc.Snapshot() }
