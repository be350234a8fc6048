package server

import (
	"fmt"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// RecoveryReport summarizes what Recover found and repaired.
type RecoveryReport struct {
	// Segments and Records count what the WAL scan read; TornBytes is the
	// size of a truncated torn tail (0 for a clean shutdown), and
	// TornSegment names the segment it was cut from.
	Segments    int
	Records     int
	TornBytes   int64
	TornSegment string
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
	// passed and its SG matched the primed online certifier byte for
	// byte (always true when Recover returns a nil error).
	AuditOK bool
}

// Summary renders the report in one line.
func (r *RecoveryReport) Summary() string {
	audit := "audit: ok"
	if !r.AuditOK {
		audit = "audit: not run"
	}
	return fmt.Sprintf(
		"recovered %d events from %d wal records in %d segments (%d torn bytes truncated); aborted %d orphan transactions, delivered %d missing informs; log now %d events; %s",
		r.DurableEvents, r.Records, r.Segments, r.TornBytes, r.OrphanTops, r.FixupInforms, r.StitchedEvents, audit)
}

// Recover builds a server from the durable WAL in opts.WAL (an empty WAL
// is a fresh start). The durable record prefix is replayed through the
// tree interner and the object automata — asserting at each logged
// REQUEST_COMMIT that the automaton grants the same value, so a WAL that
// could not have come from a faithful run is rejected instead of served —
// then the log is "stitched": transactions whose completion was logged
// but whose informs were lost get the missing informs, and top-level
// transactions still in flight at the crash are aborted exactly as a
// dropped connection would have been (the paper's well-formedness keeps
// orphans harmless: an aborted top's INFORM_ABORT discards the whole
// subtree's locks). The online certifier is primed synchronously over the
// stitched log and cross-checked against a batch core.Check — so the
// resumed server's certificate is byte-identical to an uninterrupted batch
// check of the stitched log.
//
// Recovery never panics on bad WAL bytes: any torn tail outside the last
// segment, semantic replay divergence, or failed audit is returned as an
// error.
func Recover(opts Options) (s *Server, rep *RecoveryReport, err error) {
	if opts.WAL == nil {
		return nil, nil, fmt.Errorf("server: Recover requires Options.WAL")
	}
	// The interner panics on programming errors (duplicate labels with
	// different metadata); for recovery those can also be provoked by
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

// replayWAL scans the WAL, replays its durable prefix through the tree
// interner and the object automata, and appends the prefix to the log
// before attaching the writer, so that it is not written again; every
// later append, repairs included, tees into the WAL.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayWAL(rep *RecoveryReport) (event.Behavior, error) {
	scan, err := scanWAL(s.opts.WAL)
	if err != nil {
		return nil, err
	}
	rep.Segments, rep.Records = scan.segments, scan.records
	rep.TornBytes, rep.TornSegment = scan.tornBytes, scan.tornSegment
	b, err := s.replayDefs(scan.ops)
	if err != nil {
		return nil, err
	}
	rep.DurableEvents = len(b)
	switch {
	case len(b) == 0:
		if s.tr.NumTx() > 1 || s.tr.NumObjects() > 0 {
			// Definitions with no events cannot come from a live server,
			// which logs CREATE(T0) before anything else.
			return nil, fmt.Errorf("server: recovery rejected wal: definitions without events")
		}
	case b[0].Kind != event.Create || b[0].Tx != tname.Root:
		return nil, fmt.Errorf("server: recovery rejected wal: log does not open with CREATE(T0)")
	default:
		if err := simple.CheckWellFormed(s.tr, b); err != nil {
			return nil, fmt.Errorf("server: recovery rejected wal: %w", err)
		}
		if err := s.replayAutomata(b); err != nil {
			return nil, err
		}
	}
	s.log.append(b...)
	w, err := newWalWriter(s.opts.WAL, s.opts.WALSegmentBytes, scan.nextIdx, s.metrics)
	if err != nil {
		return nil, err
	}
	s.wal, s.log.wal = w, w
	return b, nil
}

// replayDefs re-interns every definition record in WAL order, asserting
// the interner assigns the same sequential IDs the live server got, and
// collects the event records into the durable behavior prefix.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayDefs(ops []event.WalOp) (event.Behavior, error) {
	var b event.Behavior
	for _, op := range ops {
		switch op.Kind {
		case event.WalObjectDef:
			if s.tr.Object(op.Label) != tname.NoObj {
				return nil, fmt.Errorf("server: recovery rejected wal: duplicate object %q", op.Label)
			}
			sp := spec.ByName(op.SpecName) // non-nil: DecodeWalOp validated
			id := s.tr.AddObject(op.Label, sp)
			for int(id) >= len(s.objs) {
				s.objs = append(s.objs, nil)
			}
			s.objs[id] = &sharedObject{id: id, sp: s.tr.Spec(id), g: s.proto.New(s.tr, id)}
		case event.WalTxDef:
			before := s.tr.NumTx()
			var id tname.TxID
			if op.Obj == tname.NoObj {
				id = s.tr.Child(op.Parent, op.Label)
			} else {
				id = s.tr.Access(op.Parent, op.Label, op.Obj, op.Op)
			}
			if s.tr.NumTx() != before+1 || id != tname.TxID(before) {
				return nil, fmt.Errorf("server: recovery rejected wal: duplicate tx definition %q under %s",
					op.Label, s.tr.Name(op.Parent))
			}
		case event.WalEvents:
			b = append(b, op.Events...)
		}
	}
	return b, nil
}

// replayAutomata drives the object automata through the durable prefix
// exactly as the live sessions did: CREATE at an access's CREATE event,
// TryRequestCommit at its REQUEST_COMMIT (asserting the grant and the
// value — the automata are deterministic and failed polls don't mutate, so
// a faithful log replays to the same state), informs at inform events.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayAutomata(b event.Behavior) error {
	for i, e := range b {
		switch e.Kind {
		case event.Create:
			if e.Tx != tname.Root && s.tr.IsAccess(e.Tx) {
				s.objs[s.tr.AccessObject(e.Tx)].g.Create(e.Tx)
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
		case event.InformCommit:
			s.objs[e.Obj].g.InformCommit(e.Tx)
		case event.InformAbort:
			s.objs[e.Obj].g.InformAbort(e.Tx)
		default:
			// RequestCreate, Commit, Abort, reports: no automaton call.
		}
	}
	return nil
}

// stitch appends the repair events: missing informs for completions whose
// session died before delivering them, then an abort for every orphaned
// in-flight top-level transaction (ascending TxID). Both go through the
// sessions' own paths — inform, and the abort a dropped connection's
// abortTop appends — so they are also made durable.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) stitch(b event.Behavior, rep *RecoveryReport) {
	// touched[T] = objects of automaton-created accesses in T's subtree,
	// in first-create order — the recovery analogue of txFrame.touched.
	touched := make(map[tname.TxID][]tname.ObjID)
	touch := func(t tname.TxID, x tname.ObjID) {
		for _, y := range touched[t] {
			if y == x {
				return
			}
		}
		touched[t] = append(touched[t], x)
	}
	informed := make(map[[2]int64]bool) // (tx, obj) pairs already informed
	completed := make(map[tname.TxID]event.Kind)
	var completions []tname.TxID
	for _, e := range b {
		switch e.Kind {
		case event.Create:
			if e.Tx != tname.Root && s.tr.IsAccess(e.Tx) {
				x := s.tr.AccessObject(e.Tx)
				for u := e.Tx; u != tname.Root; u = s.tr.Parent(u) {
					touch(u, x)
				}
			}
		case event.Commit, event.Abort:
			if _, dup := completed[e.Tx]; !dup {
				completed[e.Tx] = e.Kind
				completions = append(completions, e.Tx)
			}
		case event.InformCommit, event.InformAbort:
			informed[[2]int64{int64(e.Tx), int64(e.Obj)}] = true
		default:
		}
	}

	// Missing informs, in completion order — leaf completions precede
	// their ancestors' in any well-formed log, so lock hand-up replays in
	// the right order.
	for _, t := range completions {
		kind := event.InformCommit
		if completed[t] == event.Abort {
			kind = event.InformAbort
		}
		for _, x := range touched[t] {
			if informed[[2]int64{int64(t), int64(x)}] {
				continue
			}
			s.inform(kind, s.objs[x], t)
			rep.FixupInforms++
		}
	}

	// Orphaned tops: created, never completed, session gone.
	for _, t := range s.tr.Children(tname.Root) {
		if _, done := completed[t]; done || !createdIn(b, t) {
			continue
		}
		s.abort(t, touched[t])
		rep.OrphanTops++
	}
	rep.StitchedEvents = s.log.len()
}

// createdIn reports whether t has a CREATE event in the durable prefix —
// a definition record alone (crash between intern and append) leaves a
// name that never entered the behavior and needs no abort.
func createdIn(b event.Behavior, t tname.TxID) bool {
	for _, e := range b {
		if e.Kind == event.Create && e.Tx == t {
			return true
		}
	}
	return false
}

// bumpSessionSeq moves the session counter past every recovered session
// label ("s<session>.<n>" tops), so resumed sessions never collide with a
// dead session's transaction names.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) bumpSessionSeq() {
	max := int64(0)
	for _, t := range s.tr.Children(tname.Root) {
		var sess int64
		var n int
		if _, err := fmt.Sscanf(s.tr.Label(t), "s%d.%d", &sess, &n); err == nil && sess > max {
			max = sess
		}
	}
	s.sessionSeq.Store(max)
}

// recoverMetrics rebuilds the counters derivable from the replayed prefix
// b so verdicts and the final report stay consistent across a restart; the
// repairs stitch appends after it count themselves, like any session's.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) recoverMetrics(b event.Behavior) {
	for _, e := range b {
		switch e.Kind {
		case event.Commit:
			s.metrics.CommitEvents.Add(1)
			if s.tr.Parent(e.Tx) == tname.Root {
				s.metrics.TopCommits.Add(1)
			}
		case event.Abort:
			s.metrics.AbortEvents.Add(1)
		case event.Create:
			if e.Tx != tname.Root && s.tr.Parent(e.Tx) == tname.Root {
				s.metrics.Begins.Add(1)
			}
		default:
		}
	}
}

// primeCertifier replays the stitched log through the online incremental
// graph synchronously, then audits it against a batch core.Check: the two
// must be byte-identical, which is exactly the acceptance bar the live
// server's Final() enforces.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) primeCertifier(rep *RecoveryReport) error {
	if err := s.cert.prime(); err != nil {
		return err
	}
	res := core.Check(s.tr, s.log.snapshot())
	if !res.OK {
		return fmt.Errorf("server: recovery rejected wal: stitched log fails batch check: %s", res.Summary(s.tr))
	}
	if got, want := s.cert.snapshotSG().DOT(), res.SG.DOT(); got != want {
		return fmt.Errorf("server: recovery audit: online snapshot differs from batch SG")
	}
	rep.AuditOK = true
	return nil
}
