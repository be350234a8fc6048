package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
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
// readers walk the published events in place (view). An event is stored as
// a 16-byte logRec that holds no pointer, so the garbage collector never
// scans the chunks; the rare string value goes to one side table.
type eventLog struct {
	mu sync.Mutex
	// chunks holds event i at chunks[i/logChunk][i%logChunk]; n counts the
	// events appended. Every chunk but the last is full.
	chunks []*[logChunk]logRec //sgvet:guardedby mu
	n      int                 //sgvet:guardedby mu
	// strs holds the string values of the events, by spec.Pack. Like the
	// chunks, an entry once appended is never rewritten.
	strs []string //sgvet:guardedby mu
}

// logRec is one event of the log, packed into 16 bytes that hold no
// pointer (event.Packed): a string value's X indexes eventLog.strs.
type logRec = event.Packed

// logChunk is the number of events in one chunk: 2048 logRecs are 32 KiB,
// the runtime's largest small-object size class, which a chunk fills
// exactly because it holds no pointer and so carries no header.
const logChunk = 2048

// append atomically appends evs and returns the log index of the first one.
// It writes nothing to the WAL: the next sync's leader copies the events
// there (walWriter.writeSuffix).
//
//sgvet:hotpath
func (l *eventLog) append(evs ...event.Event) int {
	l.mu.Lock()
	base := l.n
	for _, e := range evs {
		if l.n == len(l.chunks)*logChunk {
			l.grow()
		}
		l.chunks[l.n/logChunk][l.n%logChunk], l.strs = event.Pack(e, l.strs)
		l.n++
	}
	l.mu.Unlock()
	return base
}

// appendPacked appends the events evs holds, packed: recovery puts what it
// reads back from the WAL into the log so.
func (l *eventLog) appendPacked(evs *event.PackedEvents) {
	l.mu.Lock()
	base := int64(len(l.strs))
	for _, r := range evs.Recs {
		if l.n == len(l.chunks)*logChunk {
			l.grow()
		}
		if r.VK == spec.VStr {
			r.X += base
		}
		l.chunks[l.n/logChunk][l.n%logChunk] = r
		l.n++
	}
	l.strs = append(l.strs, evs.Strs...)
	l.mu.Unlock()
}

// grow adds an empty chunk. It is kept out of line so that the append
// path's one allocation stays here and the hotalloc gate can hold append to
// zero.
//
//go:noinline
//sgvet:holds l.mu
func (l *eventLog) grow() {
	l.chunks = append(l.chunks, new([logChunk]logRec))
}

// len reports the current log length.
//
//sgvet:hotpath
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// logView is the published log at one instant: its chunk headers, its
// string table and its length.
type logView struct {
	chunks []*[logChunk]logRec
	strs   []string
	n      int
}

// view returns the published log. Chunks are never moved, and neither an
// event below the length nor a string it refers to is ever rewritten, so
// the caller reads events [0, n) without mu: taking the view under mu
// orders those reads after the appends that wrote them.
//
//sgvet:hotpath
func (l *eventLog) view() logView {
	l.mu.Lock()
	defer l.mu.Unlock()
	return logView{chunks: l.chunks, strs: l.strs, n: l.n}
}

// Len is the number of published events: a logView is an event.Source,
// which is how Final and Recover hand the log to the batch check in place.
func (v logView) Len() int { return v.n }

// recs returns records i, i+1, …, up to the end of i's chunk or of the
// log, whichever comes first, in place.
func (v logView) recs(i int) []logRec {
	recs := v.chunks[i/logChunk][i%logChunk:]
	return recs[:min(len(recs), v.n-i)]
}

// Run rebuilds events i, i+1, … into buf, up to the end of i's chunk, of
// the log or of buf, whichever comes first, through the event
// constructors. It is the log's one decoder: the certifier, the batch
// check and snapshot read through it, a run per call, and the WAL writer
// encodes the records themselves (event.AppendWalPacked).
func (v logView) Run(i int, buf []event.Event) []event.Event {
	recs := v.recs(i)
	recs = recs[:min(len(recs), len(buf))]
	buf = buf[:len(recs)]
	for k := range recs {
		r := &recs[k]
		e := &buf[k]
		switch r.Kind {
		case event.InformCommit, event.InformAbort:
			*e = event.NewInform(r.Kind, r.Tx, tname.ObjID(r.X))
		case event.RequestCommit, event.ReportCommit:
			*e = event.NewValEvent(r.Kind, r.Tx, spec.Unpack(r.VK, r.X, v.strs))
		default:
			*e = event.NewEvent(r.Kind, r.Tx)
		}
	}
	return buf
}

// kinds counts the published events by kind, reading the records in place.
func (v logView) kinds() (n [event.InformAbort + 1]int) {
	for i := 0; i < v.n; i += logChunk {
		for _, r := range v.chunks[i/logChunk][:min(logChunk, v.n-i)] {
			if r.Kind <= event.InformAbort {
				n[r.Kind]++
			}
		}
	}
	return n
}

// snapshot copies the current log into one contiguous behavior.
func (l *eventLog) snapshot() event.Behavior { return event.Collect(l.view()) }

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

	// mu serializes the combiners; the engine and the buffer the log is
	// decoded into are theirs.
	mu  sync.Mutex
	inc *core.Incremental    //sgvet:guardedby mu
	buf [certRun]event.Event //sgvet:guardedby mu

	// watermark is the certified log prefix; it only grows, under mu.
	watermark atomic.Int64
	// rejected is the first cycle, stored before the watermark that
	// covers it is published.
	rejected atomic.Pointer[rejection]

	// Live gauges.
	parents, nodes, edges atomic.Int64
}

// certRun is the length of certifier.buf: a combiner decodes the log a
// run of at most 64 events, 3 KiB, at a time.
const certRun = 64

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
func (c *certifier) combine(target int) { _ = c.apply(target, nil) }

// apply is combine with every piece of a run, as the log's decoder hands
// it out, first handed to check under the tree read lock: recovery checks
// and replays the durable prefix in the pass that certifies it. When check
// refuses a piece, apply returns its error at once, with that piece and
// the rest uncertified.
//
//sgvet:holds c.mu
func (c *certifier) apply(target int, check func(i int, evs []event.Event) error) error {
	wm := int(c.watermark.Load())
	if wm >= target {
		return nil
	}
	v := c.srv.log.view()
	for wm < target {
		n := c.srv.opts.Hooks.CertApply(wm, v.n-wm)
		n = max(1, min(n, v.n-wm))
		c.srv.mu.RLock()
		for i := wm; i < wm+n; {
			run := v.Run(i, c.buf[:min(certRun, wm+n-i)])
			if check != nil {
				if err := check(i, run); err != nil {
					c.srv.mu.RUnlock()
					return err
				}
			}
			for k, e := range run {
				c.inc.Append(e)
				if c.snap != nil {
					c.snap.apply(i+k, e)
				}
			}
			i += len(run)
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
	return nil
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

// prime certifies the recovered log, as far as recovery's pass has not,
// before any session exists and refuses it when SG(β) is cyclic.
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
