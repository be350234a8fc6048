package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
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
// is a fresh start). The definition records rebuild the name tree, and one
// pass over the durable event prefix drives the object automata —
// asserting at each logged REQUEST_COMMIT that the automaton grants the
// same value, so a WAL that could not have come from a faithful run is
// rejected instead of served — and gathers what the repairs need. Then the
// log is "stitched": transactions whose completion was logged but whose
// informs were lost get the missing informs, and top-level transactions
// still in flight at the crash are aborted exactly as a dropped connection
// would have been (the paper's well-formedness keeps orphans harmless: an
// aborted top's INFORM_ABORT discards the whole subtree's locks). The
// online certifier is primed synchronously over the stitched log and
// audited as Final audits a drained server — so the resumed server's
// certificate is byte-identical to an uninterrupted batch check of the
// stitched log.
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
// repairs; its zero value repairs nothing.
type replayed struct {
	// touched[T] lists the objects of automaton-created accesses in T's
	// subtree, in first-create order: the recovery analogue of
	// txFrame.touched.
	touched [][]tname.ObjID
	// informed holds the (transaction, object) pairs already informed.
	informed map[informPair]bool
	// done marks the completed transactions; completions are their COMMIT
	// and ABORT events in log order.
	done        []bool
	completions []event.Event
	// tops are the created top-level transactions, in CREATE order.
	tops []tname.TxID
}

type informPair struct {
	t tname.TxID
	x tname.ObjID
}

// replayWAL scans the WAL, rebuilds the name tree from its definitions,
// replays its durable event prefix into r, and appends the prefix to the
// log before attaching the writer, so that it is not written again; every
// later append, repairs included, tees into the WAL.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayWAL(r *replayed, rep *RecoveryReport) error {
	scan, err := scanWAL(s.opts.WAL)
	if err != nil {
		return err
	}
	rep.Segments, rep.Records = scan.segments, scan.records
	rep.TornBytes, rep.TornSegment, rep.ZeroBytes = scan.tornBytes, scan.tornSegment, scan.zeroBytes
	if err := s.replayDefs(scan.defs); err != nil {
		return err
	}
	b := scan.events
	rep.DurableEvents = len(b)
	switch {
	case len(b) == 0:
		if s.tr.NumTx() > 1 || s.tr.NumObjects() > 0 {
			// Definitions with no events cannot come from a live server,
			// which logs CREATE(T0) before anything else.
			return fmt.Errorf("server: recovery rejected wal: definitions without events")
		}
	case b[0].Kind != event.Create || b[0].Tx != tname.Root:
		return fmt.Errorf("server: recovery rejected wal: log does not open with CREATE(T0)")
	default:
		if err := simple.CheckWellFormed(s.tr, b); err != nil {
			return fmt.Errorf("server: recovery rejected wal: %w", err)
		}
		if err := s.replay(b, r); err != nil {
			return err
		}
	}
	s.log.append(b...)
	w, err := newWalWriter(s.opts.WAL, s.opts.WALSegmentBytes, scan.nextIdx, s.metrics, &s.openTops, s.opts.Hooks.Now)
	if err != nil {
		return err
	}
	s.wal, s.log.wal = w, w
	return nil
}

// replayDefs defines every name in WAL order, as the live server did.
// Define takes the labels' uniqueness on trust, so the tree is validated
// once at the end. The session counter moves past every session named in a
// top-level definition, created or not: a name defined durably owns its
// label even when its CREATE was lost.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayDefs(defs []event.WalOp) error {
	var sessions int64
	for _, op := range defs {
		switch op.Kind {
		case event.WalObjectDef:
			if s.tr.Object(op.Label) != tname.NoObj {
				return fmt.Errorf("server: recovery rejected wal: duplicate object %q", op.Label)
			}
			sp := spec.ByName(op.SpecName) // non-nil: DecodeWalOpInto validated
			s.newSharedObject(s.tr.AddObject(op.Label, sp))
		case event.WalTxDef:
			s.tr.Define(op.Parent, op.Label, op.Obj, op.Op)
			if op.Parent == tname.Root {
				sessions = max(sessions, sessionOf(op.Label))
			}
		case event.WalEvents:
			// scanSegment keeps the events apart, in walScan.events.
		}
	}
	if err := s.tr.Validate(); err != nil {
		return fmt.Errorf("server: recovery rejected wal: %w", err)
	}
	s.sessionSeq.Store(sessions)
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

// replay is the one pass over the well-formed durable prefix b. It drives
// the object automata exactly as the live sessions did: CREATE at an
// access's CREATE event, TryRequestCommit at its REQUEST_COMMIT (asserting
// the grant and the value — the automata are deterministic and failed
// polls don't mutate, so a faithful log replays to the same state), informs
// at inform events. It counts the metrics b accounts for, so verdicts and
// the final report stay consistent across a restart (the repairs count
// themselves, like any session's appends), and records in r what the
// repairs need.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replay(b event.Behavior, r *replayed) error {
	n := s.tr.NumTx()
	r.touched = make([][]tname.ObjID, n)
	r.informed = make(map[informPair]bool)
	r.done = make([]bool, n)
	m := s.metrics
	for i, e := range b {
		switch e.Kind {
		case event.Create:
			if e.Tx == tname.Root {
				continue
			}
			if s.tr.IsAccess(e.Tx) {
				x := s.tr.AccessObject(e.Tx)
				s.objs[x].g.Create(e.Tx)
				for u := e.Tx; u != tname.Root; u = s.tr.Parent(u) {
					if !slices.Contains(r.touched[u], x) {
						r.touched[u] = append(r.touched[u], x)
					}
				}
			}
			if s.tr.Parent(e.Tx) == tname.Root {
				m.Begins.Add(1)
				r.tops = append(r.tops, e.Tx)
			}
		case event.RequestCommit:
			if s.tr.IsAccess(e.Tx) {
				g := s.objs[s.tr.AccessObject(e.Tx)].g
				v, ok := g.TryRequestCommit(e.Tx)
				if !ok {
					return fmt.Errorf("server: recovery rejected wal: event %d: access %s not grantable at its logged position",
						i, s.tr.Name(e.Tx))
				}
				if v != e.Val {
					return fmt.Errorf("server: recovery rejected wal: event %d: access %s replays to %s, log says %s",
						i, s.tr.Name(e.Tx), v, e.Val)
				}
			}
		case event.Commit, event.Abort:
			// CheckWellFormed admits one completion per transaction.
			if e.Kind == event.Commit {
				m.CommitEvents.Add(1)
				if s.tr.Parent(e.Tx) == tname.Root {
					m.TopCommits.Add(1)
				}
			} else {
				m.AbortEvents.Add(1)
			}
			r.done[e.Tx] = true
			r.completions = append(r.completions, e)
		case event.InformCommit:
			s.objs[e.Obj].g.InformCommit(e.Tx)
			r.informed[informPair{e.Tx, e.Obj}] = true
		case event.InformAbort:
			s.objs[e.Obj].g.InformAbort(e.Tx)
			r.informed[informPair{e.Tx, e.Obj}] = true
		default:
			// RequestCreate, reports: no automaton call.
		}
	}
	return nil
}

// stitch appends the repair events: missing informs for completions whose
// session died before delivering them, then an abort for every orphaned
// in-flight top-level transaction. Both go through the sessions' own
// paths — inform, and the abort a dropped connection's abortTop appends —
// so they are also made durable.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) stitch(r *replayed, rep *RecoveryReport) {
	// Missing informs, in completion order — leaf completions precede
	// their ancestors' in any well-formed log, so lock hand-up replays in
	// the right order.
	for _, e := range r.completions {
		kind := event.InformCommit
		if e.Kind == event.Abort {
			kind = event.InformAbort
		}
		for _, x := range r.touched[e.Tx] {
			if !r.informed[informPair{e.Tx, x}] {
				s.inform(kind, s.objs[x], e.Tx)
				rep.FixupInforms++
			}
		}
	}

	// Orphaned tops: created, never completed, session gone. They abort in
	// TxID order, which is not CREATE order when two sessions interleave
	// defining a name and logging its CREATE.
	slices.Sort(r.tops)
	for _, t := range r.tops {
		if !r.done[t] {
			s.abort(t, r.touched[t])
			rep.OrphanTops++
		}
	}
	rep.StitchedEvents = s.log.len()
}

// primeCertifier replays the stitched log through the online incremental
// graph synchronously, then audits it as Final audits a drained server: a
// batch core.Check of the log must pass, and the primed engine must hold
// the records the batch construction accumulated.
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
