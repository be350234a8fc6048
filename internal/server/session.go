package server

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/wire"
)

// txFrame is one open transaction on a session's cursor stack: frames[0] is
// the top-level transaction, deeper frames are open subtransactions. The
// innermost frame is the "current transaction" every request addresses.
type txFrame struct {
	id tname.TxID
	// touched is the set of objects accessed anywhere in this frame's
	// subtree, in first-touch order, recorded at each access's creation;
	// completion informs go to exactly these objects.
	touched []tname.ObjID
	// named holds the numbers of the children this frame's client has
	// named ("k<n>"), ascending: the one place a duplicate name can arise,
	// since every other label the server gives is unique by construction.
	named []uint64
}

// name records that the client names a child of this frame k<n>, and
// reports false if it already has. A client numbers its children in
// ascending order, so the usual record is an append.
func (f *txFrame) name(n uint64) bool {
	if k := len(f.named); k == 0 || f.named[k-1] < n {
		f.named = append(f.named, n)
		return true
	}
	i, found := slices.BinarySearch(f.named, n)
	if found {
		return false
	}
	f.named = slices.Insert(f.named, i, n)
	return true
}

func (f *txFrame) touch(x tname.ObjID) {
	if !slices.Contains(f.touched, x) {
		f.touched = append(f.touched, x)
	}
}

// session is one connection: a strictly sequential request loop driving one
// fragment of the transaction tree, answering in request order. All
// transaction state lives here on the server; the client only holds a cursor.
type session struct {
	s    *Server
	conn net.Conn
	id   int64

	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte
	out  []byte
	lbl  []byte // scratch for building labels

	frames []txFrame
	labelN int // session-local unique label counter for children/accesses
	topN   int // top-level transactions begun on this session

	// roDepth > 0 means the open transaction is read-only on the backend's
	// snapshot store: it has no frames, appends no events, holds no lock, and
	// every read resolves against the log prefix pinned in roCut at BEGIN.
	roDepth int
	roCut   int
	// view is what the connection's client holds of the reads this session
	// served its snapshot transactions.
	view view

	// lastAborted marks that the previous transaction ended in a
	// server-side abort, so the next BEGIN counts as a retry.
	lastAborted bool
	// inTx mirrors len(frames) > 0 for the drain loop, which must read it
	// from another goroutine. A snapshot read-only transaction does not set
	// it: a drain has nothing to wait for there, and its client may owe the
	// COMMIT until its next request. Server.openTops counts the sessions
	// with it set (setInTx).
	inTx atomic.Bool
}

func newSession(s *Server, c net.Conn) *session {
	return &session{
		s:    s,
		conn: c,
		id:   s.sessionSeq.Add(1),
		r:    bufio.NewReader(c),
		w:    bufio.NewWriter(c),
	}
}

// idle reports whether the session has no open transaction that logged
// anything; Shutdown closes idle connections immediately, a snapshot reader's
// among them.
func (sn *session) idle() bool { return !sn.inTx.Load() }

// setInTx opens or closes the session's logged top-level transaction, in
// inTx and in the server's count of open ones.
func (sn *session) setInTx(open bool) {
	sn.inTx.Store(open)
	if open {
		sn.s.openTops.Add(1)
	} else {
		sn.s.openTops.Add(-1)
	}
}

// serve runs the request loop until the connection closes. A connection
// that drops mid-transaction has its top-level transaction aborted so the
// objects release its locks and the log stays a complete story.
func (sn *session) serve() {
	sn.s.metrics.Sessions.Add(1)
	defer sn.conn.Close()
	for {
		payload, err := wire.ReadFrame(sn.r, sn.rbuf)
		if err != nil {
			break
		}
		sn.rbuf = payload
		start := time.Now()
		// A COMMIT now would close a logged top-level transaction: the only
		// kind that syncs and certifies, and the only kind CommitLatency
		// times.
		closesTop := len(sn.frames) == 1
		q, perr := wire.ParseRequest(payload)
		var resp wire.Response
		if perr != nil {
			resp = wire.Response{Status: wire.StatusError, Reason: perr.Error()}
		} else {
			resp = sn.handle(q)
		}
		sn.s.metrics.Requests.Add(1)
		sn.s.metrics.ReqLatency.Observe(time.Since(start).Microseconds())
		if perr == nil && q.Cmd == wire.CmdCommit && closesTop && resp.Status == wire.StatusOK {
			sn.s.metrics.CommitLatency.Observe(time.Since(start).Microseconds())
		}
		cmd := q.Cmd
		if perr != nil {
			// q is the zero Request after a parse error; answer under the
			// explicit invalid command instead of echoing whatever the
			// zero value happens to decode as.
			cmd = wire.CmdInvalid
		}
		sn.out = wire.AppendResponse(sn.out[:0], cmd, resp)
		if err := wire.PutFrame(sn.w, sn.out); err != nil {
			break
		}
		// A client that sent requests ahead gets their answers in one write;
		// one that waits for each answer finds its next request never
		// buffered here and is answered at once. Waiting for a whole frame,
		// not for any byte, keeps an answer from being held back behind a
		// request the client has only half sent.
		if !wire.FrameBuffered(sn.r) {
			if err := sn.w.Flush(); err != nil {
				break
			}
		}
	}
	// A snapshot read-only transaction left open (roDepth > 0) holds no locks
	// and logged nothing: dropping it needs no abort events.
	if len(sn.frames) > 0 {
		// Disconnect (or force-close during drain) with an open transaction.
		if sn.s.draining.Load() {
			sn.s.metrics.DrainAborts.Add(1)
			sn.abortTop("server draining")
		} else {
			sn.s.metrics.ClientAborts.Add(1)
			sn.abortTop("client disconnected")
		}
	}
	sn.s.opts.Hooks.SessionDone(sn.id)
}

// handle answers one request. While a snapshot read-only transaction is open
// (roDepth > 0), BEGIN is refused, children are pure depth bookkeeping,
// accesses must be read-only ops answered from the snapshot cut, and
// completions just pop depth — none of it touches objects, locks, or the
// event log, so a read-only transaction can never block, deadlock, or be
// chosen as a victim.
func (sn *session) handle(q wire.Request) wire.Response {
	ro := sn.roDepth > 0
	switch q.Cmd {
	case wire.CmdBegin:
		if ro {
			return errResp("BEGIN with a transaction already open")
		}
		return sn.handleBegin(q)
	case wire.CmdChild:
		if ro {
			sn.roDepth++
			return wire.Response{Status: wire.StatusOK, Name: sn.childLabel(q)}
		}
		return sn.handleChild(q)
	case wire.CmdAccess:
		if !ro {
			return sn.handleAccess(q)
		}
		if q.Obj == "" {
			return errResp("empty object label")
		}
		op := spec.Op{Kind: q.Op, Arg: q.Arg}
		v, o, ok := sn.s.cert.snap.read(q.Obj, op, sn.roCut)
		if !ok {
			return errResp(fmt.Sprintf("read-only transaction: op %s not allowed", q.Op))
		}
		sn.view.served(q.Obj, op, o)
		return wire.Response{Status: wire.StatusOK, Value: v}
	case wire.CmdCommit, wire.CmdAbort:
		if ro {
			sn.roDepth--
			return wire.Response{Status: wire.StatusOK}
		}
		if q.Cmd == wire.CmdCommit {
			return sn.handleCommit()
		}
		return sn.handleAbort()
	case wire.CmdVerdict:
		return sn.handleVerdict()
	case wire.CmdPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.CmdInvalid:
		return errResp("invalid command")
	default:
		return errResp(fmt.Sprintf("unknown command %d", uint8(q.Cmd)))
	}
}

func errResp(reason string) wire.Response {
	return wire.Response{Status: wire.StatusError, Reason: reason}
}

// label builds prefix+n ("a7") in the session's scratch buffer: its one
// allocation is the string.
func (sn *session) label(prefix byte, n uint64) string {
	sn.lbl = strconv.AppendUint(append(sn.lbl[:0], prefix), n, 10)
	return string(sn.lbl)
}

// topLabel builds the label of the session's topN-th top-level transaction,
// "s<id>.<topN>", or "s<id>.r<topN>" for a read-only one.
func (sn *session) topLabel(ro bool) string {
	b := strconv.AppendInt(append(sn.lbl[:0], 's'), sn.id, 10)
	b = append(b, '.')
	if ro {
		b = append(b, 'r')
	}
	sn.lbl = strconv.AppendInt(b, int64(sn.topN), 10)
	return string(sn.lbl)
}

// childLabel is the label a CHILD request gives its subtransaction: "k<n>"
// when the parent named it, else the next server-made "c<labelN>".
func (sn *session) childLabel(q wire.Request) string {
	if q.Named {
		return sn.label('k', q.N)
	}
	sn.labelN++
	return sn.label('c', uint64(sn.labelN))
}

// appendLog appends events to the server log, keeping the completion-event
// counters in step, and returns the log index of the first event.
//
//sgvet:hotpath
func (s *Server) appendLog(evs ...event.Event) int {
	for _, e := range evs {
		switch e.Kind {
		case event.Commit:
			s.metrics.CommitEvents.Add(1)
		case event.Abort:
			s.metrics.AbortEvents.Add(1)
		default:
		}
	}
	return s.log.append(evs...)
}

// handleBegin opens a top-level transaction: REQUEST_CREATE by T0 followed
// immediately by the controller's CREATE — one specific schedule of the
// generic controller's nondeterminism. A read-only BEGIN on a backend with
// a snapshot store instead pins a certified snapshot cut and enters the
// lock-free read-only mode; backends without one serve it as a normal
// transaction.
func (sn *session) handleBegin(q wire.Request) wire.Response {
	if len(sn.frames) > 0 {
		return errResp("BEGIN with a transaction already open")
	}
	if sn.s.draining.Load() {
		return errResp("server draining")
	}
	if err := sn.s.WALError(); err != nil {
		// The WAL writer's failure is sticky: no later sync makes an event
		// durable, so stop accepting work instead of building transactions
		// that recovery can never see.
		return errResp(fmt.Sprintf("wal unavailable: %v", err))
	}
	if q.RO {
		if st := sn.s.cert.snap; st != nil {
			sn.topN++
			sn.roDepth = 1
			sn.roCut = st.cut()
			if sn.lastAborted {
				sn.s.metrics.Retries.Add(1)
				sn.lastAborted = false
			}
			// The name is cosmetic — a read-only transaction is a query
			// outside the behavior β, so nothing is interned or logged. The
			// flag tells the client so: the COMMIT it will send is answered
			// OK unconditionally, and need not be waited for. The view delta
			// brings the client's copy to the new cut.
			delta, reset := sn.view.advance(st, sn.roCut)
			return wire.Response{Status: wire.StatusOK, Name: sn.topLabel(true), Snapshot: true, View: delta, ViewReset: reset}
		}
	}
	sn.topN++
	label := sn.topLabel(false)
	top := sn.s.internTx(tname.Root, label, tname.NoObj, spec.Op{})
	sn.s.appendLog(
		event.NewEvent(event.RequestCreate, top),
		event.NewEvent(event.Create, top),
	)
	sn.pushFrame(top)
	sn.setInTx(true)
	sn.s.metrics.Begins.Add(1)
	if sn.lastAborted {
		sn.s.metrics.Retries.Add(1)
		sn.lastAborted = false
	}
	return wire.Response{Status: wire.StatusOK, Name: label}
}

// handleChild opens a subtransaction of the current transaction, under the
// name its parent chose or, failing that, one the server makes up. A name
// the current transaction has already given a child is refused before
// anything is logged: a transaction is created at most once.
func (sn *session) handleChild(q wire.Request) wire.Response {
	if len(sn.frames) == 0 {
		return errResp("CHILD outside a transaction")
	}
	cur := &sn.frames[len(sn.frames)-1]
	label := sn.childLabel(q)
	if q.Named && !cur.name(q.N) {
		return errResp("CHILD " + label + ": the current transaction already has a child of that name")
	}
	child := sn.s.internTx(cur.id, label, tname.NoObj, spec.Op{})
	sn.s.appendLog(
		event.NewEvent(event.RequestCreate, child),
		event.NewEvent(event.Create, child),
	)
	sn.pushFrame(child)
	return wire.Response{Status: wire.StatusOK, Name: label}
}

// handleAccess runs one access as a child of the current transaction: it is
// created at the object, waits until the object grants REQUEST_COMMIT (a
// deadlock victim, the timeout safety net or a drain abort the whole
// top-level transaction instead), and is then committed and reported
// immediately — an access is a leaf, so nothing is gained by leaving it open.
func (sn *session) handleAccess(q wire.Request) wire.Response {
	if len(sn.frames) == 0 {
		return errResp("ACCESS outside a transaction")
	}
	obj, err := sn.s.resolveObject(q.Obj)
	if err != nil {
		return errResp(err.Error())
	}
	if !specAllows(obj.sp, q.Op) {
		return errResp(fmt.Sprintf("object %q (%s) does not support op %s", q.Obj, obj.sp.Name(), q.Op))
	}
	sn.labelN++
	label := sn.label('a', uint64(sn.labelN))
	op := spec.Op{Kind: q.Op, Arg: q.Arg}
	acc := sn.s.internTx(sn.frames[len(sn.frames)-1].id, label, obj.id, op)

	// Every open frame is an ancestor of the access: record the touch now,
	// before the access can block, so an abort that interrupts the wait
	// still informs the object.
	for i := range sn.frames {
		sn.frames[i].touch(obj.id)
	}

	sn.s.appendLog(event.NewEvent(event.RequestCreate, acc))
	sn.s.withObj(obj, func() { //sgvet:holds obj.mu, sn.s.mu:r
		obj.g.Create(acc)
		sn.s.appendLog(event.NewEvent(event.Create, acc))
	})

	v, granted, reason := sn.waitGrant(obj, acc)
	if !granted {
		sn.abortTop(reason)
		return wire.Response{Status: wire.StatusTxAborted, Reason: reason}
	}
	sn.s.metrics.Accesses.Add(1)

	// The access auto-commits: COMMIT, inform its object, report to the
	// parent. Leaf-to-root inform order holds because the session emits a
	// child's informs before its parent can complete.
	sn.s.appendLog(event.NewEvent(event.Commit, acc))
	sn.s.inform(event.InformCommit, obj, acc)
	sn.s.appendLog(event.NewValEvent(event.ReportCommit, acc, v))
	return wire.Response{Status: wire.StatusOK, Value: v}
}

// waitGrant asks the object for the access's REQUEST_COMMIT and, while it is
// refused, parks the session until an INFORM on the object wakes it. The
// wait ends with the grant, with this session's top chosen as a deadlock
// victim, with a forced drain, or — a counted anomaly, since every release
// wakes its waiters — with the LockTimeout safety net. The REQUEST_COMMIT
// event is appended while the object mutex is held, so the log's per-object
// operation order is the automaton's.
func (sn *session) waitGrant(obj *sharedObject, acc tname.TxID) (spec.Value, bool, string) {
	var (
		v       spec.Value
		ok      bool
		restart string
		w       *waitEntry // allocated on the first refusal; the granted-at-once path stays alloc-free
		opts    = &sn.s.opts
	)
	for {
		sn.s.withObj(obj, func() { //sgvet:holds obj.mu, sn.s.mu:r
			v, ok = obj.g.TryRequestCommit(acc)
			if ok {
				sn.s.appendLog(event.NewValEvent(event.RequestCommit, acc, v))
				if w != nil {
					sn.s.exitWait(w)
				}
				return
			}
			if restart = restartReason(obj.g, acc); restart != "" {
				return
			}
			if w == nil {
				// Entered under the mutex hold that refused: no INFORM can
				// slip between the refusal and the park.
				w = &waitEntry{
					access: acc, top: sn.frames[0].id, obj: obj,
					wake:     make(chan struct{}, 1),
					deadline: opts.Hooks.Now().Add(opts.LockTimeout),
				}
				sn.s.enterWait(w)
			}
			sn.s.askWitness(w)
		})
		if ok {
			return v, true, ""
		}
		if restart != "" {
			// The protocol says this access can never be granted (e.g. an
			// MVTO access below an already granted conflicting timestamp):
			// restart the classical transaction instead of parking forever.
			if w != nil {
				sn.s.leaveWait(w)
			}
			sn.s.metrics.RestartAborts.Add(1)
			return spec.Nil, false, restart
		}
		sn.s.metrics.BlockedPolls.Add(1)
		reason := sn.waitVerdict(w)
		if reason == "" {
			opts.Hooks.LockWait(sn.id, w.wake, w.deadline.Sub(opts.Hooks.Now()))
			if !sn.s.killed.Load() {
				continue
			}
			// A dying server grants nothing more, even if the holder's own
			// drain abort has just released the lock.
			reason = sn.waitVerdict(w)
		}
		sn.s.leaveWait(w)
		return spec.Nil, false, reason
	}
}

// waitVerdict decides, after a refusal, whether w's wait goes on ("") or
// why it ends, and counts the ending.
func (sn *session) waitVerdict(w *waitEntry) string {
	m := sn.s.metrics
	switch {
	case sn.s.killed.Load():
		m.DrainAborts.Add(1)
		return "server draining"
	case w.victim.Load() || sn.s.breakDeadlock(w):
		m.DeadlockAborts.Add(1)
		return "deadlock victim"
	case !sn.s.opts.Hooks.Now().Before(w.deadline):
		m.LockTimeouts.Add(1)
		return "lock wait timeout"
	}
	return ""
}

// handleCommit commits the current transaction. A top-level commit's
// response is not written until the certified watermark covers its
// REPORT_COMMIT — this session extends the watermark itself when it is
// short — so a StatusOK top-level commit is always backed by an acyclic
// SG(β) prefix. A sub-commit does not wait: its report goes only to its
// parent, and the paper's serial correctness is stated for T0, whose next
// commit check covers every earlier event because SG(β) grows
// monotonically with the prefix.
func (sn *session) handleCommit() wire.Response {
	if len(sn.frames) == 0 {
		return errResp("COMMIT outside a transaction")
	}
	cur := sn.frames[len(sn.frames)-1]
	base := sn.s.appendLog(
		event.NewValEvent(event.RequestCommit, cur.id, spec.OK),
		event.NewEvent(event.Commit, cur.id),
	)
	sn.s.informAll(event.InformCommit, cur.id, cur.touched)
	seq := sn.s.appendLog(event.NewValEvent(event.ReportCommit, cur.id, spec.OK))
	sn.popFrame()
	top := len(sn.frames) == 0
	var walErr error
	if top {
		// Top-level completion is a durability point: fsync before the
		// client can observe the commit.
		walErr = sn.s.walSync()
		sn.s.opts.Hooks.CommitWait(sn.id, seq)
		if err := sn.s.cert.waitCertified(seq); err != nil {
			// The commit is already in the log; certification failing
			// here means the protocol let a non-serializable history
			// through (a broken protocol under test). Surface it loudly
			// instead of claiming OK.
			sn.s.metrics.Uncertified.Add(1)
			return errResp(err.Error())
		}
	} else {
		// Writer failures are sticky: no later sync will copy this
		// subtree's events to disk either.
		walErr = sn.s.WALError()
	}
	if walErr != nil {
		// The commit is in the in-memory log but not durable: acking OK
		// would let the client observe a commit that recovery loses.
		sn.s.metrics.WALFailures.Add(1)
		sn.s.logf("session %d: commit not durable: %v", sn.id, walErr)
		return errResp(fmt.Sprintf("commit not durable: %v", walErr))
	}
	if top {
		sn.s.metrics.TopCommits.Add(1)
	}
	return wire.Response{Status: wire.StatusOK, Seq: uint64(base + 1)}
}

// handleAbort aborts the current transaction at the client's request.
func (sn *session) handleAbort() wire.Response {
	if len(sn.frames) == 0 {
		return errResp("ABORT outside a transaction")
	}
	sn.s.metrics.ClientAborts.Add(1)
	cur := sn.frames[len(sn.frames)-1]
	sn.s.abort(cur.id, cur.touched)
	sn.popFrame()
	if len(sn.frames) == 0 {
		// A sync failure here is tolerable: an abort ack promises no
		// durability, and recovery aborts any orphan it finds anyway.
		sn.s.walSync()
	}
	return wire.Response{Status: wire.StatusOK}
}

// abortTop aborts the session's whole top-level transaction — the server's
// unilateral move for deadlock victims, lock timeouts, drains and dropped
// connections. Open subtransactions (and a still-live blocked access) become
// orphans, exactly as in the runner: informing the objects of the top's
// abort discards the entire subtree's locks and log entries.
func (sn *session) abortTop(reason string) {
	top := sn.frames[0]
	sn.s.abort(top.id, top.touched)
	sn.frames = sn.frames[:0]
	sn.setInTx(false)
	// Sync failures are ignored: an undurable abort is recovered as an
	// orphan and aborted again, which is the same outcome.
	sn.s.walSync()
	sn.lastAborted = true
	sn.s.logf("session %d: aborted %s: %s", sn.id, sn.s.nameOf(top.id), reason)
}

// abort appends t's abort: ABORT(t), INFORM_ABORT(t, x) at every object x
// its subtree touched, REPORT_ABORT(t). A client's ABORT, the server's
// abortTop and recovery's orphan repair all append it here, so the events
// a crash repair logs are the events a dropped connection logs.
func (s *Server) abort(t tname.TxID, touched []tname.ObjID) {
	s.appendLog(event.NewEvent(event.Abort, t))
	s.informAll(event.InformAbort, t, touched)
	s.appendLog(event.NewEvent(event.ReportAbort, t))
}

// inform delivers one INFORM to obj: the automaton step, its log event and
// the wake-up of the sessions parked on obj share one critical section.
func (s *Server) inform(kind event.Kind, obj *sharedObject, t tname.TxID) {
	s.withObj(obj, func() { //sgvet:holds obj.mu, s.mu:r
		if kind == event.InformCommit {
			obj.g.InformCommit(t)
		} else {
			obj.g.InformAbort(t)
		}
		s.appendLog(event.NewInform(kind, t, obj.id))
		s.wakeWaiters(obj, t)
	})
}

// informAll delivers INFORM_COMMIT/INFORM_ABORT of t to every object its
// subtree touched.
func (s *Server) informAll(kind event.Kind, t tname.TxID, touched []tname.ObjID) {
	for _, x := range touched {
		s.mu.RLock()
		obj := s.objs[x]
		s.mu.RUnlock()
		s.inform(kind, obj, t)
	}
}

// pushFrame opens a frame for t in the next slot, reusing the arrays a
// transaction at its depth left there.
func (sn *session) pushFrame(t tname.TxID) {
	n := len(sn.frames)
	sn.frames = slices.Grow(sn.frames, 1)[:n+1]
	f := &sn.frames[n]
	f.id, f.touched, f.named = t, f.touched[:0], f.named[:0]
}

// popFrame closes the innermost frame after its completion events are in the
// log.
func (sn *session) popFrame() {
	sn.frames = sn.frames[:len(sn.frames)-1]
	if len(sn.frames) == 0 {
		sn.setInTx(false)
	}
}

// nameOf formats a transaction name under the tree read lock.
func (s *Server) nameOf(t tname.TxID) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tr.Name(t)
}

// handleVerdict certifies the log as it stands and reports the verdict.
func (sn *session) handleVerdict() wire.Response {
	sn.s.cert.catchUp()
	wm, acyclic := sn.s.cert.state()
	logLen := sn.s.log.len()
	parents, nodes, edges := sn.s.cert.gauges()
	return wire.Response{Status: wire.StatusOK, Verdict: wire.Verdict{
		Events:    uint64(logLen),
		Certified: uint64(wm),
		Acyclic:   acyclic,
		Parents:   uint64(parents),
		Nodes:     uint64(nodes),
		Edges:     uint64(edges),
		Commits:   uint64(sn.s.metrics.CommitEvents.Load()),
		Aborts:    uint64(sn.s.metrics.AbortEvents.Load()),
	}}
}
