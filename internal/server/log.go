package server

import (
	"fmt"
	"math"
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
	cond   *sync.Cond
	events event.Behavior //sgvet:guardedby mu
	closed bool           //sgvet:guardedby mu

	// wal, when set, receives every atomic append as one WalEvents record —
	// written under mu, so the durable record order IS the log order.
	// Recovery installs it (and seeds events with the durable prefix)
	// before any session exists.
	wal    *walWriter //sgvet:guardedby mu
	walBuf []byte     //sgvet:guardedby mu
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
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
	l.cond.Broadcast()
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

// close marks the log complete (appenders are gone: Shutdown/Kill wait for
// sessions first) and wakes the certifier so it can drain and exit.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// waitBeyond blocks until the log extends past n (returning a copy of the
// new suffix in buf) or is closed with nothing left (returning ok=false).
//
//sgvet:hotpath
func (l *eventLog) waitBeyond(n int, buf event.Behavior) (event.Behavior, bool) {
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

// certifier runs core.Incremental behind the event log: a single goroutine
// consumes the log in order and certifies each prefix, so a commit
// response can wait until the watermark covers its COMMIT event and thereby
// carry an acyclic-SG(β)-prefix guarantee. Prefix-monotonicity of the SG
// edge set (see core.Incremental) makes the online verdict agree with the
// offline batch verdict on every extension, which is why certifying behind
// the log is sound. Final and Recover hold its snapshot byte-identical to
// the batch check.
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
