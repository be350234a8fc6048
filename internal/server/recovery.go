package server

import (
	"fmt"
	"strconv"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/object"
	"nestedsg/internal/simple"
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
// records. One pass over the durable event prefix accepts it as a behavior
// of the generic system and certifies it (replay). Then the log is
// stitched: the INFORMs a crashed session owed are delivered, and
// top-level transactions still in flight at the crash are aborted exactly
// as a dropped connection would have been (an aborted top's INFORM_ABORT
// discards the whole subtree's locks). The online certifier catches up
// over the repairs synchronously and is audited as Final audits a drained
// server, so the resumed server's certificate is byte-identical to an
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

// replayWAL scans the WAL straight into the name tree and the log, makes
// its objects, and replays its durable event prefix, returning the
// acceptor that stepped it (nil for an empty log). The writer is attached
// behind the prefix; the repairs reach the WAL at the next sync.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replayWAL(rep *RecoveryReport) (acc *generic.Acceptor, err error) {
	scan, err := scanWAL(s.opts.WAL, s.tr, s.log)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("server: recovery rejected wal: %w", err)
	}
	s.sessionSeq.Store(scan.sessions)
	n := s.log.len()
	rep.DurableEvents = n
	switch {
	case n == 0:
		if s.tr.NumTx() > 1 || s.tr.NumObjects() > 0 {
			// Definitions with no events cannot come from a live server,
			// which logs CREATE(T0) before anything else.
			return nil, fmt.Errorf("server: recovery rejected wal: definitions without events")
		}
	case s.log.chunks[0][0].Kind != event.Create || s.log.chunks[0][0].Tx != tname.Root:
		return nil, fmt.Errorf("server: recovery rejected wal: log does not open with CREATE(T0)")
	default:
		if acc, err = s.replay(); err != nil {
			return nil, err
		}
	}
	// The prefix and its names were read back from the disk, so they are
	// durable.
	if s.wal, err = newWalWriter(s, scan.nextIdx); err != nil {
		return nil, err
	}
	return acc, nil
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
// log replays to the same state) — then certifies the run. A log that
// could not have come from a faithful run is rejected instead of served.
// The acceptor it returns knows what the repairs need.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) replay() (*generic.Acceptor, error) {
	objs := make([]object.Generic, len(s.objs))
	for x, o := range s.objs {
		objs[x] = o.g
	}
	acc := generic.NewAcceptor(s.tr, objs)
	v := s.log.view()
	s.cert.mu.Lock()
	defer s.cert.mu.Unlock()
	s.cert.inc.Reserve(v)
	return acc, s.cert.apply(v.n, func(i int, evs []event.Event) error {
		for k, e := range evs {
			if err := acc.Step(i+k, e); err != nil {
				return fmt.Errorf("server: recovery rejected wal: %w", err)
			}
		}
		return nil
	})
}

// stitch counts, from acc, the acceptor of the durable prefix, the metrics
// the prefix accounts for, so verdicts and the final report stay
// consistent across a restart. Then it appends the repairs, through the
// sessions' own paths, so they count themselves and are made durable: the
// INFORMs each completion still owes, in completion order (a leaf's
// completion precedes its ancestors', so lock hand-up replays in order),
// then the abort a dropped connection appends, for every orphaned top.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (s *Server) stitch(acc *generic.Acceptor, rep *RecoveryReport) {
	if acc != nil {
		m := s.metrics
		var xs []tname.ObjID
		for _, t := range acc.Completions() {
			kind := event.InformAbort
			if acc.Completion(t) == event.Commit {
				kind = event.InformCommit
				m.CommitEvents.Add(1)
				if s.tr.Parent(t) == tname.Root {
					m.TopCommits.Add(1)
				}
			} else {
				m.AbortEvents.Add(1)
			}
			xs = acc.Owed(xs[:0], t)
			for _, x := range xs {
				s.inform(kind, s.objs[x], t)
				rep.FixupInforms++
			}
		}

		// Orphaned tops: created, never completed, session gone. They
		// abort in TxID order, which is not CREATE order when two sessions
		// interleave defining a name and logging its CREATE.
		for t := tname.Root + 1; int(t) < s.tr.NumTx(); t++ {
			if s.tr.Parent(t) != tname.Root || !acc.Facts(t).Has(simple.Created) {
				continue
			}
			m.Begins.Add(1)
			if acc.Completion(t) == event.KindInvalid {
				xs = acc.Touched(xs[:0], t)
				s.abort(t, xs)
				rep.OrphanTops++
			}
		}
	}
	rep.StitchedEvents = s.log.len()
}

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
