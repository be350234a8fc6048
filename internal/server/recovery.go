package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/object"
	"nestedsg/internal/tname"
)

// RecoveryReport summarizes what Recover found and repaired.
type RecoveryReport struct {
	// Segments and Records count what the WAL scan read; TornBytes is the
	// size of a truncated torn tail (0 for a clean shutdown), and
	// TornSegment names the segment it was cut from. ZeroBytes counts the
	// zeros trimmed from the last segment's end: a segment file grown ahead
	// of its records leaves them, and they are not a torn write.
	Segments    int
	Records     int
	TornBytes   int64
	TornSegment string
	ZeroBytes   int64
	// DurableEvents is the replayed event prefix; StitchedEvents is the
	// log length after appending recovery's own repair events.
	DurableEvents  int
	StitchedEvents int
	// OrphanTops counts top-level transactions that were in flight at the
	// crash and were aborted by recovery; FixupInforms counts informs a
	// crashed session logged a completion for but never delivered.
	OrphanTops   int
	FixupInforms int
	// AuditOK reports that the offline batch check of the stitched log
	// passed and that the primed online certifier holds the records the
	// batch construction accumulated (Final.Match), so the two graphs are
	// equal and render to byte-identical DOT (always true when Recover
	// returns a nil error).
	AuditOK bool
}

// Summary renders the report in one line. Recover returns a report only
// with a passing audit, so the line always ends "audit: ok".
func (r *RecoveryReport) Summary() string {
	return fmt.Sprintf(
		"recovered %d events from %d wal records in %d segments (%d torn bytes truncated, %d zero bytes trimmed); aborted %d orphan transactions, delivered %d missing informs; log now %d events; audit: ok",
		r.DurableEvents, r.Records, r.Segments, r.TornBytes, r.ZeroBytes, r.OrphanTops, r.FixupInforms, r.StitchedEvents)
}

// Recover builds a server from the durable WAL in opts.WAL (an empty WAL
// is a fresh start). The scan decodes each record once, the definitions
// straight into the name tree and the events straight into the log's
// records. Then one pass over the durable event prefix checks that it is a
// behavior of the generic system — well-formed, every INFORM after its
// completion, and every logged REQUEST_COMMIT granted by its object's
// automaton with the logged value, so a WAL that could not have come from
// a faithful run is rejected instead of served — gathers what the repairs
// need, and certifies it. Then the log is "stitched": transactions whose
// completion was logged but whose informs were lost get the missing
// informs, and top-level transactions still in flight at the crash are
// aborted exactly as a dropped connection would have been (the paper's
// well-formedness keeps orphans harmless: an aborted top's INFORM_ABORT
// discards the whole subtree's locks). The online certifier catches up
// over the repairs synchronously and is audited as Final audits a drained
// server — so the resumed server's certificate is byte-identical to an
// uninterrupted batch check of the stitched log.
//
// Recovery never panics on bad WAL bytes: any torn tail outside the last
// segment, semantic replay divergence, or failed audit is returned as an
// error.
func Recover(opts Options) (s *Server, rep *RecoveryReport, err error) {
	if opts.WAL == nil {
		return nil, nil, fmt.Errorf("server: Recover requires Options.WAL")
	}
	// The tree and the automata panic on programming errors (a child of
	// an access, say); for recovery those can also be provoked by
	// corrupt-but-parseable WAL bytes, so they must surface as clean
	// rejections — this guard is the fuzz contract's armor.
	defer func() {
		if r := recover(); r != nil {
			s, rep = nil, nil
			err = fmt.Errorf("server: recovery rejected wal: %v", r)
		}
	}()
	return newServer(opts)
}

// replayed is what the one pass over the durable prefix leaves the
// repairs, in arrays dense in the log and in the names; its zero value
// repairs nothing.
type replayed struct {
	// acc has stepped the prefix; it knows each transaction's completion.
	acc *generic.Acceptor
	// accesses are the accesses created, in CREATE order: the objects
	// they touch are the recovery analogue of txFrame.touched.
	accesses []tname.TxID
	// informs are the INFORM events, in log order.
	informs []txObj
	// completions are the COMMITted and ABORTed transactions, in log
	// order.
	completions []tname.TxID
	// tops are the created top-level transactions, in CREATE order.
	tops []tname.TxID
}

// txObj is a transaction and an object.
type txObj struct {
	t tname.TxID
	x tname.ObjID
}

// replayWAL scans the WAL straight into the name tree and the log, makes
// its objects, and replays its durable event prefix into r. The writer is
// attached after the prefix, so that it is not written again; every later
// append, repairs included, tees into the WAL.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayWAL(r *replayed, rep *RecoveryReport) error {
	scan, err := scanWAL(s.opts.WAL, s.tr, s.log)
	if err != nil {
		return err
	}
	rep.Segments, rep.Records = scan.segments, scan.records
	rep.TornBytes, rep.TornSegment, rep.ZeroBytes = scan.tornBytes, scan.tornSegment, scan.zeroBytes
	for x := range s.tr.NumObjects() {
		s.newSharedObject(tname.ObjID(x))
	}
	// Define takes the labels' uniqueness on trust, so the tree is
	// validated once, whole. The session counter moves past every session
	// named in a top-level definition, created or not: a name defined
	// durably owns its label even when its CREATE was lost.
	if err := s.tr.Validate(); err != nil {
		return fmt.Errorf("server: recovery rejected wal: %w", err)
	}
	s.sessionSeq.Store(scan.sessions)
	n := s.log.len()
	rep.DurableEvents = n
	switch {
	case n == 0:
		if s.tr.NumTx() > 1 || s.tr.NumObjects() > 0 {
			// Definitions with no events cannot come from a live server,
			// which logs CREATE(T0) before anything else.
			return fmt.Errorf("server: recovery rejected wal: definitions without events")
		}
	case s.log.chunks[0][0].Kind != event.Create || s.log.chunks[0][0].Tx != tname.Root:
		return fmt.Errorf("server: recovery rejected wal: log does not open with CREATE(T0)")
	default:
		if err := s.replay(r); err != nil {
			return err
		}
	}
	w, err := newWalWriter(s.opts.WAL, s.opts.WALSegmentBytes, scan.nextIdx, s.metrics, &s.openTops, s.opts.Hooks.Now)
	if err != nil {
		return err
	}
	// The prefix was read back from the disk, so it is durable.
	w.logEnd = n
	w.durableLog.Store(int64(n))
	s.wal, s.log.wal = w, w
	return nil
}

// sessionOf returns n for a label "s<n>.<k>", the label session n gives its
// k-th top-level transaction (session.topLabel), and 0 for any other.
func sessionOf(label string) int64 {
	id, _, ok := strings.Cut(label, ".")
	if !ok || !strings.HasPrefix(id, "s") {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// replay is the one pass over the durable prefix: the certifier reads it
// in place, a run at a time, and hands each run first to an Acceptor over
// the object automata — the simple-database axioms, the two INFORM rules,
// and the automata driven exactly as the live sessions drove them, with
// the grant and the value of every access's REQUEST_COMMIT asserted (the
// automata are deterministic and failed polls don't mutate, so a faithful
// log replays to the same state) — then counts the metrics the prefix
// accounts for, so verdicts and the final report stay consistent across a
// restart (the repairs count themselves, like any session's appends), and
// records in r what the repairs need; then it certifies the run. A log
// that could not have come from a faithful run is rejected instead of
// served.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replay(r *replayed) error {
	objs := make([]object.Generic, len(s.objs))
	for x, o := range s.objs {
		objs[x] = o.g
	}
	r.acc = generic.NewAcceptor(s.tr, objs)
	v := s.log.view()
	k := v.kinds()
	r.accesses, r.tops = make([]tname.TxID, 0, k[event.Create]), make([]tname.TxID, 0, k[event.Create])
	r.completions = make([]tname.TxID, 0, k[event.Commit]+k[event.Abort])
	r.informs = make([]txObj, 0, k[event.InformCommit]+k[event.InformAbort])
	m := s.metrics
	check := func(i int, evs []event.Event) error {
		for k, e := range evs {
			if err := r.acc.Step(i+k, e); err != nil {
				return fmt.Errorf("server: recovery rejected wal: %w", err)
			}
			switch e.Kind {
			case event.Create:
				if s.tr.IsAccess(e.Tx) {
					r.accesses = append(r.accesses, e.Tx)
				}
				if e.Tx != tname.Root && s.tr.Parent(e.Tx) == tname.Root {
					m.Begins.Add(1)
					r.tops = append(r.tops, e.Tx)
				}
			case event.Commit:
				m.CommitEvents.Add(1)
				if s.tr.Parent(e.Tx) == tname.Root {
					m.TopCommits.Add(1)
				}
				r.completions = append(r.completions, e.Tx)
			case event.Abort:
				m.AbortEvents.Add(1)
				r.completions = append(r.completions, e.Tx)
			case event.InformCommit, event.InformAbort:
				r.informs = append(r.informs, txObj{e.Tx, e.Obj})
			default:
				// RequestCreate, RequestCommit, reports: nothing to count.
			}
		}
		return nil
	}
	s.cert.mu.Lock()
	defer s.cert.mu.Unlock()
	s.cert.inc.Reserve(v)
	return s.cert.apply(v.n, check)
}

// stitch appends the repair events: missing informs for completions whose
// session died before delivering them, then an abort for every orphaned
// in-flight top-level transaction. Both go through the sessions' own
// paths — inform, and the abort a dropped connection's abortTop appends —
// so they are also made durable.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) stitch(r *replayed, rep *RecoveryReport) {
	if r.acc != nil {
		touched, informed := r.touched(s.tr), groupByTx(s.tr.NumTx(), r.informs)
		// mark[x] == q once x is done with for the q-th transaction looked
		// at; fresh returns the objects of xs not done with, once each.
		mark, q := make([]int32, s.tr.NumObjects()), int32(0)
		var buf []tname.ObjID
		fresh := func(xs []tname.ObjID) []tname.ObjID {
			buf = buf[:0]
			for _, x := range xs {
				if mark[x] != q {
					mark[x] = q
					buf = append(buf, x)
				}
			}
			return buf
		}

		// Missing informs, in completion order — leaf completions precede
		// their ancestors' in any well-formed log, so lock hand-up replays
		// in the right order — at the objects the transaction's subtree
		// touched, in first-touch order.
		for _, t := range r.completions {
			kind := event.InformCommit
			if r.acc.Completion(t) == event.Abort {
				kind = event.InformAbort
			}
			q++
			fresh(informed.of(t))
			for _, x := range fresh(touched.of(t)) {
				s.inform(kind, s.objs[x], t)
				rep.FixupInforms++
			}
		}

		// Orphaned tops: created, never completed, session gone. They
		// abort in TxID order, which is not CREATE order when two sessions
		// interleave defining a name and logging its CREATE.
		slices.Sort(r.tops)
		for _, t := range r.tops {
			if r.acc.Completion(t) == event.KindInvalid {
				q++
				s.abort(t, fresh(touched.of(t)))
				rep.OrphanTops++
			}
		}
	}
	rep.StitchedEvents = s.log.len()
}

// touched groups, by transaction, the objects of the accesses created in
// each subtree, in CREATE order: an object appears once per access to it.
func (r *replayed) touched(tr *tname.Tree) objsByTx {
	n := 0
	for _, a := range r.accesses {
		n += tr.Depth(a)
	}
	pairs := make([]txObj, 0, n)
	for _, a := range r.accesses {
		x := tr.AccessObject(a)
		for u := a; u != tname.Root; u = tr.Parent(u) {
			pairs = append(pairs, txObj{u, x})
		}
	}
	return groupByTx(tr.NumTx(), pairs)
}

// objsByTx holds objects grouped by transaction: t's are
// objs[start[t]:start[t+1]], in the order they were given.
type objsByTx struct {
	start []int32
	objs  []tname.ObjID
}

// groupByTx groups pairs, over n transactions, by transaction with one
// counting pass, keeping each transaction's objects in order.
func groupByTx(n int, pairs []txObj) objsByTx {
	g := objsByTx{start: make([]int32, n+1), objs: make([]tname.ObjID, len(pairs))}
	for _, p := range pairs {
		g.start[p.t+1]++
	}
	for t := range n {
		g.start[t+1] += g.start[t]
	}
	next := slices.Clone(g.start[:n])
	for _, p := range pairs {
		g.objs[next[p.t]] = p.x
		next[p.t]++
	}
	return g
}

// of returns t's objects.
func (g objsByTx) of(t tname.TxID) []tname.ObjID { return g.objs[g.start[t]:g.start[t+1]] }

// primeCertifier certifies the rest of the stitched log — the replay pass
// certified the durable prefix, so what is left is the repairs — through
// the online incremental graph synchronously, then audits the log as Final
// audits a drained server: a batch core.Check of the log must pass, and
// the primed engine must hold the records the batch construction
// accumulated.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) primeCertifier(rep *RecoveryReport) error {
	if err := s.cert.prime(); err != nil {
		return err
	}
	f := s.Final()
	if !f.Batch.OK {
		return fmt.Errorf("server: recovery rejected wal: stitched log fails batch check: %s", f.Batch.Summary(s.tr))
	}
	if !f.Match {
		return fmt.Errorf("server: recovery audit: online snapshot differs from batch SG")
	}
	rep.AuditOK = true
	return nil
}
