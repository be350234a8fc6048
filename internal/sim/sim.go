// Package sim is a deterministic fault-injection simulator for the
// nested-transaction server. It wraps the real server — real sessions,
// real locking automata, real WAL, real certifier — behind a seeded
// virtual scheduler: a single driver goroutine decides every client call,
// wakes every parked lock wait, advances a virtual clock, and samples
// faults (connection drops mid-transaction, drops after a top-level COMMIT,
// certifier stalls, lock-timeout storms, forced deadlocks, and full
// process crashes with torn-write recovery) from one splitmix64 stream. Two runs with the same
// Config produce byte-identical event traces, so any failing run
// reproduces from its uint64 seed alone.
//
// Every session is a client.Conn over a net.Pipe, run by a goroutine of its
// own inside RunTx or RunReadTx, whose body makes the driver's calls one at
// a time; the driver pumps each call until it returns, parks on a lock or
// waits on a stalled certifier. The client pipelines as in production, so
// drops and crashes land with answers still owed (Report.MidPipeline).
//
// Crashes use the in-memory Disk: the simulator snapshots the durable
// prefix (plus a random torn tail of unsynced bytes), freezes the old
// disk, kills the server, and rebuilds it with server.Recover — whose
// audit proves the resumed certificate is byte-identical to a batch
// core.Check over the stitched log. On small runs the stitched log is
// additionally cross-checked against the internal/oracle sibling-order
// search.
package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/oracle"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

// FaultClass names one injectable fault.
type FaultClass uint8

// Fault classes.
const (
	// FaultDrop closes a client connection while its transaction is open;
	// the server must abort the orphaned top and release its locks.
	FaultDrop FaultClass = iota
	// FaultDropAfterCommit hangs up once Hooks.CommitWait reports a top-level
	// COMMIT logged and synced: the commit is durable but unacknowledged.
	FaultDropAfterCommit
	// FaultCertStall blocks the online certifier at the current log
	// length for a sampled number of scheduler decisions; top-level
	// commits queue on the watermark and must all drain when the stall
	// lifts.
	FaultCertStall
	// FaultClockStorm jumps the virtual clock past every blocked
	// access's lock-wait deadline, forcing a storm of timeout aborts.
	FaultClockStorm
	// FaultCrash kills the process at the current instant: the disk
	// keeps only the synced prefix plus a random torn tail of unsynced
	// bytes, and the server is rebuilt with server.Recover.
	FaultCrash
	// FaultDeadlock drives two sessions into a crossing write conflict over
	// two distinct objects — a writes x, b writes y, a wants y, b wants x —
	// closing a waits-for cycle on purpose, which the server's deadlock
	// detector (or timeout) must resolve by aborting a victim.
	FaultDeadlock
)

var faultNames = map[FaultClass]string{
	FaultDrop:            "drop",
	FaultDropAfterCommit: "drop-after-commit",
	FaultCertStall:       "cert-stall",
	FaultClockStorm:      "clock-storm",
	FaultCrash:           "crash",
	FaultDeadlock:        "deadlock",
}

// String names the fault class.
func (f FaultClass) String() string {
	if n, ok := faultNames[f]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// AllFaults lists every fault class.
func AllFaults() []FaultClass {
	return []FaultClass{FaultDrop, FaultDropAfterCommit, FaultCertStall, FaultClockStorm, FaultCrash, FaultDeadlock}
}

// Config parameterizes a simulation run. The zero value plus a seed is a
// usable configuration.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Sessions is the number of concurrent client sessions (default 4).
	Sessions int
	// Objects is the number of shared register objects (default 3; few
	// objects force lock conflicts).
	Objects int
	// Steps is the number of scheduler decisions before the graceful
	// drain (default 150).
	Steps int
	// Backend selects the server's object backend by name ("moss",
	// "undolog", "mvto"; default "moss").
	Backend string
	// ROPermille is the per-BEGIN probability (in 1/1000) that a
	// top-level transaction opens read-only (default 0: none). Read-only
	// transactions issue only reads; on a snapshot-capable backend
	// ("mvto") the simulator additionally asserts they never park on a
	// lock, are never aborted by the server, and that each completed
	// read set matches the committed state of some log prefix.
	ROPermille int
	// Faults enables fault classes; empty means a fault-free run.
	Faults []FaultClass
	// FaultPermille is the per-step probability (in 1/1000) of injecting
	// one of the enabled faults (default 30 when Faults is non-empty).
	FaultPermille int
	// OracleMaxEvents bounds the log size for the sibling-order oracle
	// cross-check after recoveries and at the end (default 60; 0 keeps
	// the default, negative disables).
	OracleMaxEvents int
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Objects <= 0 {
		c.Objects = 3
	}
	if c.Steps <= 0 {
		c.Steps = 150
	}
	if c.Backend == "" {
		c.Backend = "moss"
	}
	if c.FaultPermille <= 0 {
		c.FaultPermille = 30
	}
	if c.OracleMaxEvents == 0 {
		c.OracleMaxEvents = 60
	}
	return c
}

// Report is the deterministic outcome of a run: identical Configs yield
// identical Reports (compare Summary() and Trace).
type Report struct {
	Seed  uint64
	Steps int
	// Begins counts the driver's BEGINs. Accesses, TopCommits and TxAborts
	// sum server counters over every incarnation: granted accesses and
	// snapshot reads, logged top-level commits, server-made aborts.
	Begins, Accesses, TopCommits, TxAborts int
	// ROBegins and ROReads count read-only top-level BEGINs and the
	// reads they issued (zero unless Config.ROPermille > 0).
	ROBegins, ROReads int
	// Faults counts injected faults by class.
	Faults map[FaultClass]int
	// Recoveries counts crash recoveries; the repair totals aggregate
	// their RecoveryReports.
	Recoveries   int
	OrphanTops   int
	FixupInforms int
	TornBytes    int64
	// TornCrashes counts the crashes whose disk image kept a non-empty
	// part of the unsynced tail — the recoveries that met a torn write. A
	// crash test that wants torn tails exercised asserts it is not zero.
	TornCrashes int
	// ZeroTailCrashes counts the recoveries whose last segment ended in
	// zeros, as a killed DirDisk's grown file does (MemDisk.Crash pads
	// its image so). Like TornCrashes it is not part of Summary().
	ZeroTailCrashes int
	// DeadlockAborts sums the server's deadlock_aborts counter over every
	// incarnation: the waits-for cycle victims, read before each crash and
	// at the final drain. Like TornCrashes it is not part of Summary().
	DeadlockAborts int64
	// CertParks counts the top-level commits that parked on a stalled
	// certifier — the work FaultCertStall exists to hold up. Not part of
	// Summary().
	CertParks int
	// MidPipeline counts the drops and crashes that hit a client owing
	// answers to requests it put ahead, buffered or parked in a burst (a
	// snapshot COMMIT among them). Not part of Summary().
	MidPipeline int
	// FinalEvents is the stitched log length after the graceful drain;
	// Trace is its binary encoding (the determinism witness).
	FinalEvents int
	Trace       []byte
	// CertDOT is the DOT rendering of the final batch-checked SG(β) —
	// the serialization certificate. Byte-comparable across runs and
	// across backends fed the identical trace.
	CertDOT string
	// FinalState maps each configured object label to its committed value
	// after the drain, replayed from the stitched log (registers).
	FinalState map[string]spec.Value
	// FinalDisk is the WAL left behind by the clean shutdown — tests
	// re-recover from it. Not part of the deterministic comparison.
	FinalDisk *server.MemDisk
}

// Summary renders the deterministic counters in one line (fault counts in
// class order).
func (r *Report) Summary() string {
	var fs []string
	classes := make([]FaultClass, 0, len(r.Faults))
	for c := range r.Faults {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fs = append(fs, fmt.Sprintf("%s=%d", c, r.Faults[c]))
	}
	return fmt.Sprintf(
		"seed=%d steps=%d begins=%d accesses=%d commits=%d txaborts=%d ro=%d/%d faults=%v recoveries=%d orphans=%d fixups=%d torn=%d events=%d",
		r.Seed, r.Steps, r.Begins, r.Accesses, r.TopCommits, r.TxAborts, r.ROBegins, r.ROReads, fs,
		r.Recoveries, r.OrphanTops, r.FixupInforms, r.TornBytes, r.FinalEvents)
}

// Slot phases: where one client session is in its call cycle.
const (
	phIdle     = iota // no call in flight
	phAwait           // call handed to the session's goroutine, not settled yet
	phParkLock        // blocked access parked in LockWait
	phParkCert        // top-level commit parked behind a stalled certifier
	phClosed          // connection dropped, waiting for SessionDone
)

// slot is one simulated client session.
type slot struct {
	idx    int
	c      *client.Conn
	calls  chan wire.Request // to the goroutine running c; closed to stop it
	exited chan struct{}     // closed when that goroutine returns
	sid    int64             // server session id
	phase  int
	inTx   bool
	depth  int
	ro     bool // the open top-level transaction is read-only
	// owed mirrors the requests c has put ahead of their answers, by the
	// client package comment's rule; drains: the call in flight reads them.
	owed         []wire.Cmd
	drains       bool
	dropAtCommit bool // FaultDropAfterCommit hangs up at this call's top-level COMMIT
}

// roRead is one observed read of a read-only transaction: the object label
// and the value the server returned.
type roRead struct {
	obj string
	val spec.Value
}

// sim is the driver state. Exactly one goroutine (the driver) mutates it;
// mu guards only the fields the hook callbacks touch.
type sim struct {
	cfg  Config
	r    *rng
	rep  *Report
	objs []string

	// roSnap: the configured backend serves read-only transactions from a
	// certified snapshot, so the driver asserts they never park and never
	// abort, and records their read sets for the prefix-consistency check.
	roSnap bool
	// roSets are the completed read-only read sets of the CURRENT server
	// incarnation. A crash discards them: a set may have read a published
	// commit whose WAL record was still unsynced, and such a commit is
	// legitimately absent from the stitched post-crash log.
	roSets [][]roRead

	clock atomic.Int64  // virtual ns
	gen   atomic.Uint64 // server incarnation; bumped by crashes

	events chan simEvent

	mu      sync.Mutex
	wakes   map[int64]chan struct{} //sgvet:guardedby mu
	release chan struct{}           //sgvet:guardedby mu
	stall   *stallState             //sgvet:guardedby mu

	disk  *server.MemDisk
	srv   *server.Server
	slots []*slot
	bySid map[int64]*slot
	done  map[int64]bool // SessionDone seen, by server session id

	stallLeft int // scheduler decisions until the certifier stall lifts
}

// Run executes one simulation and returns its deterministic report. A
// non-nil error is a certification, recovery, determinism or protocol
// failure; the report (possibly partial) is returned alongside for
// diagnostics.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	s := &sim{
		cfg:     cfg,
		r:       newRng(cfg.Seed),
		rep:     &Report{Seed: cfg.Seed, Steps: cfg.Steps, Faults: make(map[FaultClass]int)},
		events:  make(chan simEvent, 4096),
		wakes:   make(map[int64]chan struct{}),
		release: make(chan struct{}),
		roSnap:  cfg.Backend == "mvto",
	}
	s.clock.Store(1)
	for i := 0; i < cfg.Objects; i++ {
		s.objs = append(s.objs, fmt.Sprintf("r%d", i))
	}
	for i := 0; i < cfg.Sessions; i++ {
		s.slots = append(s.slots, &slot{idx: i})
	}
	if err := s.boot(server.NewMemDisk()); err != nil {
		return s.rep, err
	}
	err := s.drive()
	if err == nil {
		err = s.finish()
	}
	if err != nil {
		return s.rep, fmt.Errorf("sim: seed %d: %w", cfg.Seed, err)
	}
	return s.rep, nil
}

// Virtual lock-wait timing: each driver wake of a parked session moves the
// clock by wakeQuantum, so a session whose blocker the scheduler leaves
// alone times out on its tenth wake, and a clock storm jumps past every
// deadline at once.
const (
	lockTimeout = 40 * time.Millisecond
	wakeQuantum = 4 * time.Millisecond
)

func (s *sim) serverOpts(disk *server.MemDisk) server.Options {
	return server.Options{
		Backend:     s.cfg.Backend,
		Objects:     s.objs,
		LockTimeout: lockTimeout,
		WAL:         disk,
		Hooks:       &simHooks{s: s, gen: s.gen.Load()},
	}
}

// boot recovers a server from disk (fresh or post-crash) and connects
// every client slot to it over a pipe.
func (s *sim) boot(disk *server.MemDisk) error {
	s.disk = disk
	srv, rrep, err := server.Recover(s.serverOpts(disk))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if !rrep.AuditOK {
		srv.Kill()
		return fmt.Errorf("recovery audit skipped unexpectedly: %s", rrep.Summary())
	}
	s.srv = srv
	s.rep.OrphanTops += rrep.OrphanTops
	s.rep.FixupInforms += rrep.FixupInforms
	s.rep.TornBytes += rrep.TornBytes
	if rrep.ZeroBytes > 0 {
		s.rep.ZeroTailCrashes++
	}
	if err := s.checkOracle(); err != nil {
		return err
	}
	if err := srv.AuditObjects(); err != nil {
		return fmt.Errorf("post-recovery object audit: %w", err)
	}
	// A recovered server numbers its sessions on from the last one it
	// logged, so an incarnation's ids may repeat an earlier one's.
	s.bySid, s.done = make(map[int64]*slot), make(map[int64]bool)
	for _, sl := range s.slots {
		if err := s.connect(sl); err != nil {
			return err
		}
	}
	return nil
}

// connect gives sl a fresh pipe-backed session on the current server.
func (s *sim) connect(sl *slot) error {
	clientEnd, serverEnd := net.Pipe()
	sid := s.srv.ServeConn(serverEnd)
	if sid < 0 {
		return fmt.Errorf("slot %d: server refused connection", sl.idx)
	}
	*sl = slot{
		idx:    sl.idx,
		c:      client.NewConn(clientEnd),
		calls:  make(chan wire.Request),
		exited: make(chan struct{}),
		sid:    sid,
	}
	s.bySid[sid] = sl
	go s.run(s.gen.Load(), sid, sl.c, sl.calls, sl.exited)
	return nil
}

// errAbortTop is what a transaction body returns to abort its top level.
var errAbortTop = errors.New("sim: the driver aborts the transaction")

// run makes the driver's calls on c until calls is closed: a BEGIN starts a
// one-attempt RunTx (RunReadTx if RO) whose body makes each later call as a
// Tx method, up to a top-level COMMIT or ABORT, and reports it as evReturn.
func (s *sim) run(gen uint64, sid int64, c *client.Conn, calls <-chan wire.Request, exited chan<- struct{}) {
	defer close(exited)
	for begin := range calls {
		var reads []roRead
		body := func(tx *client.Tx) error {
			depth := 0
			var err error
			for err == nil {
				s.send(gen, simEvent{kind: evReturn, sess: sid}) // BEGIN or the last call returned
				q, ok := <-calls
				switch {
				case q.Cmd == wire.CmdAccess:
					var v spec.Value
					if v, err = tx.Access(q.Obj, q.Op, q.Arg); err == nil && begin.RO {
						reads = append(reads, roRead{obj: q.Obj, val: v})
					}
				case q.Cmd == wire.CmdChild:
					_, err = tx.Child()
					depth++
				case depth == 0 && q.Cmd == wire.CmdCommit:
					return nil
				case depth == 0 || !ok: // an ABORT, or the driver hung up
					return errAbortTop
				case q.Cmd == wire.CmdCommit:
					_, err = tx.Commit()
					depth--
				default:
					err = tx.Abort()
					depth--
				}
			}
			return err
		}
		run := c.RunTx
		if begin.RO {
			run = c.RunReadTx
		}
		err := run(1, body)
		s.send(gen, simEvent{kind: evReturn, sess: sid, ended: true, err: err, reads: reads})
	}
}

// drive runs the scheduler: one decision per step.
func (s *sim) drive() error {
	for step := 0; step < s.cfg.Steps; step++ {
		if s.stalled() {
			if s.stallLeft--; s.stallLeft <= 0 {
				if err := s.unstall(); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
			}
		}
		if err := s.tick(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// tick makes one scheduler decision: inject a fault, wake a parked
// session, or issue one request on an idle session.
func (s *sim) tick() error {
	if len(s.cfg.Faults) > 0 && s.r.intn(1000) < s.cfg.FaultPermille {
		class := s.cfg.Faults[s.r.intn(len(s.cfg.Faults))]
		if did, err := s.fault(class); err != nil || did {
			return err
		}
		// Fault not applicable right now (e.g. nothing to drop): fall
		// through to a normal decision.
	}
	parked := s.phaseSlots(phParkLock)
	idle := s.phaseSlots(phIdle)
	if len(parked) > 0 && (len(idle) == 0 || s.r.intn(100) < 40) {
		return s.wakeOne(parked[s.r.intn(len(parked))])
	}
	if len(idle) == 0 {
		if s.stalled() {
			return s.unstall()
		}
		return fmt.Errorf("no runnable session (phases %v)", s.phases())
	}
	sl := idle[s.r.intn(len(idle))]
	return s.issue(sl, s.nextRequest(sl))
}

func (s *sim) phases() []int {
	out := make([]int, len(s.slots))
	for i, sl := range s.slots {
		out[i] = sl.phase
	}
	return out
}

func (s *sim) phaseSlots(phase int) []*slot {
	var out []*slot
	for _, sl := range s.slots {
		if sl.phase == phase {
			out = append(out, sl)
		}
	}
	return out
}

// nextRequest samples the next workload call for an idle slot. The
// read-only draw happens only when ROPermille is set, so configurations
// without read-only traffic consume exactly the rng stream they always did.
func (s *sim) nextRequest(sl *slot) wire.Request {
	if !sl.inTx {
		q := wire.Request{Cmd: wire.CmdBegin}
		if s.cfg.ROPermille > 0 && s.r.intn(1000) < s.cfg.ROPermille {
			q.RO = true
		}
		return q
	}
	roll := s.r.intn(100)
	switch {
	case roll < 55:
		obj := s.objs[s.r.intn(len(s.objs))]
		if sl.ro || s.r.intn(100) < 40 {
			return wire.Request{Cmd: wire.CmdAccess, Obj: obj, Op: spec.OpRead, Arg: spec.Nil}
		}
		return wire.Request{Cmd: wire.CmdAccess, Obj: obj, Op: spec.OpWrite, Arg: spec.Int(int64(s.r.intn(8)))}
	case roll < 65:
		return wire.Request{Cmd: wire.CmdChild}
	case roll < 85:
		return wire.Request{Cmd: wire.CmdCommit}
	default:
		return wire.Request{Cmd: wire.CmdAbort}
	}
}

// issue hands q to sl's goroutine as one client call and pumps until it
// returns, parks on a lock or waits on a stalled certifier.
func (s *sim) issue(sl *slot, q wire.Request) error {
	switch q.Cmd {
	case wire.CmdBegin:
		sl.inTx, sl.depth, sl.ro = true, 1, q.RO
		s.rep.Begins++
		if q.RO {
			s.rep.ROBegins++
		}
	case wire.CmdAccess:
		if sl.ro {
			s.rep.ROReads++
		}
		_, fixed := spec.FixedAnswer(q.Op)
		sl.drains = !fixed
	case wire.CmdChild:
		sl.depth++
	case wire.CmdCommit:
		// RunReadTx leaves a snapshot transaction's COMMIT owed once its
		// BEGIN is answered (its reads owe no update).
		sl.depth--
		sl.drains = sl.depth == 0 && !(sl.ro && s.roSnap && !slices.Contains(sl.owed, wire.CmdBegin))
	default:
		sl.depth--
		sl.drains = true
	}
	if !sl.drains {
		sl.owed = append(sl.owed, q.Cmd)
	}
	sl.phase = phAwait
	sl.calls <- q
	return s.pumpUntil(func() bool { return sl.phase != phAwait })
}

// wakeOne advances the virtual clock by one wake quantum, wakes the parked
// session, and pumps until it settles again.
func (s *sim) wakeOne(sl *slot) error {
	s.clock.Add(int64(wakeQuantum))
	sl.phase = phAwait
	s.mu.Lock()
	wake := s.wakes[sl.sid]
	delete(s.wakes, sl.sid)
	s.mu.Unlock()
	if wake == nil {
		return fmt.Errorf("slot %d: parked without a wake channel", sl.idx)
	}
	close(wake)
	return s.pumpUntil(func() bool { return sl.phase != phAwait })
}

// pumpUntil consumes driver events until pred holds.
func (s *sim) pumpUntil(pred func() bool) error {
	for !pred() {
		ev := <-s.events
		if ev.gen != s.gen.Load() {
			continue
		}
		if err := s.handleEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

func (s *sim) handleEvent(ev simEvent) error {
	switch ev.kind {
	case evPark:
		if sl := s.bySid[ev.sess]; sl != nil && sl.phase != phClosed {
			if sl.ro && s.roSnap {
				return fmt.Errorf("slot %d: snapshot read-only transaction parked on a lock wait", sl.idx)
			}
			sl.phase = phParkLock
		}
	case evCommitWait:
		sl := s.bySid[ev.sess]
		if sl == nil || sl.phase != phAwait {
			return nil
		}
		if sl.dropAtCommit {
			sl.phase = phClosed
			return nil
		}
		s.mu.Lock()
		st := s.stall
		s.mu.Unlock()
		// A stall pins the certified watermark at its from; only a
		// top-level COMMIT waits for the watermark, and only it reports.
		if st != nil && ev.seq >= st.from {
			sl.phase = phParkCert
			s.rep.CertParks++
		}
	case evDone:
		s.done[ev.sess] = true
	case evReturn:
		sl := s.bySid[ev.sess]
		if sl == nil || sl.phase == phClosed {
			return nil // a call that raced a drop
		}
		sl.phase = phIdle
		if sl.drains || ev.err != nil { // RunTx reads what is owed before it judges a failure
			sl.owed = sl.owed[:0]
		}
		sl.drains = false
		if !ev.ended {
			return nil
		}
		snap := sl.ro && s.roSnap
		sl.inTx, sl.depth, sl.ro = false, 0, false
		switch {
		case errors.Is(ev.err, client.ErrTxAborted) && !snap:
		case ev.err == nil, ev.err == errAbortTop: // RunTx returns the body's error as-is
			if snap && len(ev.reads) > 0 {
				s.roSets = append(s.roSets, ev.reads) // validated in finish()
			}
		default:
			return fmt.Errorf("slot %d (snapshot read-only %v): %w", sl.idx, snap, ev.err)
		}
	}
	return nil
}

// fault injects one fault; did=false means the class is not applicable in
// the current state and the step should fall through to normal work.
func (s *sim) fault(class FaultClass) (did bool, err error) {
	switch class {
	case FaultDrop, FaultDropAfterCommit:
		if class == FaultDropAfterCommit && s.stalled() {
			// The dropped session's COMMIT parks on the stalled watermark,
			// and with it the driver's wait for the session to retire.
			return false, nil
		}
		var open []*slot
		for _, sl := range s.slots {
			// A dropped COMMIT closes the top level, and its burst must not
			// park on a lock: no blind write may be owed ahead of it.
			if sl.phase == phIdle && sl.inTx && (class == FaultDrop || sl.depth == 1 && !slices.Contains(sl.owed, wire.CmdAccess)) {
				open = append(open, sl)
			}
		}
		if len(open) == 0 {
			return false, nil
		}
		s.rep.Faults[class]++
		sl := open[s.r.intn(len(open))]
		if class == FaultDropAfterCommit {
			// A COMMIT that logs nothing (a snapshot's) drops after it returns.
			sl.dropAtCommit = true
			if err := s.issue(sl, wire.Request{Cmd: wire.CmdCommit}); err != nil {
				return true, err
			}
		}
		return true, s.drop(sl)
	case FaultCertStall:
		s.mu.Lock()
		already := s.stall != nil
		if !already {
			s.stall = &stallState{from: s.srv.LogLen(), released: make(chan struct{})}
		}
		s.mu.Unlock()
		if already {
			return false, nil
		}
		s.stallLeft = 5 + s.r.intn(20)
		s.rep.Faults[class]++
		return true, nil
	case FaultClockStorm:
		parked := s.phaseSlots(phParkLock)
		if len(parked) == 0 {
			return false, nil
		}
		s.rep.Faults[class]++
		// Jump past every lock-wait deadline, then deliver the storm:
		// every parked poll times out as it wakes.
		s.clock.Add(int64(lockTimeout + time.Millisecond))
		for _, sl := range parked {
			if err := s.wakeOne(sl); err != nil {
				return true, err
			}
		}
		return true, nil
	case FaultDeadlock:
		if len(s.objs) < 2 {
			return false, nil
		}
		// Read-only slots are excluded: the crossing pattern needs writes,
		// which a snapshot backend rejects on a read-only session.
		var open []*slot
		for _, sl := range s.slots {
			if sl.phase == phIdle && sl.inTx && !sl.ro {
				open = append(open, sl)
			}
		}
		if len(open) < 2 {
			return false, nil
		}
		s.rep.Faults[class]++
		// Two distinct objects and two distinct sessions.
		i := s.r.intn(len(s.objs))
		j := s.r.intn(len(s.objs) - 1)
		if j >= i {
			j++
		}
		a := s.r.intn(len(open))
		b := s.r.intn(len(open) - 1)
		if b >= a {
			b++
		}
		return true, s.crossWrites(open[a], open[b], s.objs[i], s.objs[j])
	case FaultCrash:
		s.rep.Faults[class]++
		return true, s.crash()
	}
	return false, fmt.Errorf("unknown fault class %d", class)
}

// drop closes a slot's connection, waits for the server to retire the
// session, and reconnects the slot.
func (s *sim) drop(sl *slot) error {
	if len(sl.owed) > 0 {
		s.rep.MidPipeline++
	}
	if err := s.retire(sl); err != nil {
		return err
	}
	return s.connect(sl)
}

// retire hangs up sl and waits for the server to end its session.
func (s *sim) retire(sl *slot) error {
	sl.phase = phClosed
	s.hangUp(sl)
	delete(s.bySid, sl.sid)
	return s.pumpUntil(func() bool { return s.done[sl.sid] })
}

// hangUp closes sl's connection, which fails any call in flight, then stops
// the goroutine running it and waits until it has returned.
func (s *sim) hangUp(sl *slot) {
	sl.c.Close()
	close(sl.calls)
	<-sl.exited
}

// crossWrites drives sessions a and b into a crossing write conflict:
// a writes x then wants y, b writes y then wants x. Each write is followed
// by a read of its object, which sends the write the client put ahead and
// waits for it. When both halves of the cross block, the waits-for graph
// has the cycle a → b → a, which the server's deadlock detector (or lock
// timeout) must break by aborting a victim. Each call is only issued while
// its session is still idle inside its transaction — an earlier park or
// abort leaves a harmless partial pattern.
func (s *sim) crossWrites(a, b *slot, x, y string) error {
	steps := []struct {
		sl  *slot
		obj string
	}{{a, x}, {b, y}, {a, y}, {b, x}}
	for _, st := range steps {
		if st.sl.phase != phIdle || !st.sl.inTx {
			continue
		}
		q := wire.Request{Cmd: wire.CmdAccess, Obj: st.obj, Op: spec.OpWrite, Arg: spec.Int(int64(s.r.intn(8)))}
		if err := s.issue(st.sl, q); err != nil {
			return err
		}
		if st.sl.phase != phIdle || !st.sl.inTx {
			continue
		}
		q.Op, q.Arg = spec.OpRead, spec.Nil
		if err := s.issue(st.sl, q); err != nil {
			return err
		}
	}
	return nil
}

// stalled reports whether a certifier stall is active. Only the driver
// writes s.stall, but a combining committer reads it under mu from its
// session's goroutine (simHooks.CertApply), so the driver's reads take the
// lock too rather than rely on "single writer" reasoning the analyzer
// cannot check.
func (s *sim) stalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stall != nil
}

// unstall lifts a certifier stall and pumps until every commit parked on
// the watermark has its response.
func (s *sim) unstall() error {
	s.mu.Lock()
	st := s.stall
	s.stall = nil
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	close(st.released)
	return s.pumpUntil(func() bool { return len(s.phaseSlots(phParkCert)) == 0 })
}

// crash kills the server at the current instant and recovers it from the
// durable prefix plus a random torn tail.
func (s *sim) crash() error {
	// Every session is settled, so the counters are a function of the
	// schedule; once the generation retires, parked sessions run again.
	s.count()
	if slices.ContainsFunc(s.slots, func(sl *slot) bool { return len(sl.owed) > 0 }) {
		s.rep.MidPipeline++
	}
	keep := 0
	if u := s.disk.UnsyncedBytes(); u > 0 {
		keep = s.r.intn(u + 1)
	}
	if keep > 0 {
		s.rep.TornCrashes++
	}
	crashDisk := s.disk.Crash(keep)
	s.disk.Freeze()

	// Retire the generation: stale hooks return immediately, parked
	// sessions and a stalled committer fall out of their hooks, and every
	// event they still emit is discarded by the gen filter.
	s.mu.Lock()
	s.gen.Add(1)
	close(s.release)
	s.release = make(chan struct{})
	s.wakes = make(map[int64]chan struct{})
	s.stall = nil
	s.mu.Unlock()

	// Discard the incarnation's read-only read sets: a set may have read a
	// published commit whose WAL record was unsynced at the crash instant,
	// and such a commit is legitimately missing from the stitched log.
	s.roSets = nil

	s.srv.Kill()
	for _, sl := range s.slots {
		s.hangUp(sl)
	}
	s.rep.Recoveries++
	return s.boot(crashDisk)
}

// count adds the incarnation's server counters to the report; the driver
// calls it with every session settled, so the sums are a function of the seed.
func (s *sim) count() {
	m := s.srv.Metrics()
	s.rep.Accesses += int(m.Accesses.Load() + m.SnapshotReads.Load())
	s.rep.TopCommits = int(m.TopCommits.Load()) // recovery counts the replayed log's
	s.rep.TxAborts += int(m.LockTimeouts.Load() + m.DeadlockAborts.Load() + m.RestartAborts.Load())
	s.rep.DeadlockAborts += m.DeadlockAborts.Load()
}

// checkOracle cross-checks the current log against the sibling-order
// search on small runs: an SG-certified behavior must admit a suitable
// sibling order (Theorem 2 ⊆ Theorem 8/19).
func (s *sim) checkOracle() error {
	if s.cfg.OracleMaxEvents < 0 {
		return nil
	}
	b := s.srv.Log()
	if len(b) > s.cfg.OracleMaxEvents {
		return nil
	}
	res := oracle.Search(s.srv.Tree(), b, 200000)
	if res.Outcome == oracle.NoOrder {
		return fmt.Errorf("oracle found no sibling order for an SG-certified %d-event log", len(b))
	}
	return nil
}

// finish drains the run deterministically: lift any stall, wake every
// parked session to its resolution, hang up every session (which aborts
// the open transactions), shut down, and verify the final certificate — the online
// snapshot must match the batch check byte for byte, and recovering the
// final WAL must reproduce the exact trace.
func (s *sim) finish() error {
	if err := s.unstall(); err != nil {
		return fmt.Errorf("final unstall: %w", err)
	}
	for {
		parked := s.phaseSlots(phParkLock)
		if len(parked) == 0 {
			break
		}
		if err := s.wakeOne(parked[0]); err != nil {
			return fmt.Errorf("final wake: %w", err)
		}
	}
	// One slot at a time, so the aborts are logged in slot order.
	for _, sl := range s.slots {
		if err := s.retire(sl); err != nil {
			return err
		}
	}
	if err := s.srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	s.count()
	if err := s.srv.WALError(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	f := s.srv.Final()
	if !f.Batch.OK {
		return fmt.Errorf("final batch check failed: %s", f.Batch.Summary(s.srv.Tree()))
	}
	if !f.Match {
		return fmt.Errorf("final online SG differs from batch SG")
	}
	s.rep.FinalEvents = f.Events
	s.rep.Trace = event.MarshalBinaryTrace(s.srv.Tree(), s.srv.Log())
	if f.Batch.SG != nil {
		s.rep.CertDOT = f.Batch.SG.DOT()
	}
	s.rep.FinalDisk = s.disk
	timeline := s.committedTimeline()
	s.rep.FinalState = s.finalState(timeline)
	if err := s.checkOracle(); err != nil {
		return err
	}
	if err := s.validateROSets(timeline); err != nil {
		return err
	}
	if err := s.srv.AuditObjects(); err != nil {
		return fmt.Errorf("final object audit: %w", err)
	}

	// The WAL of the clean shutdown must recover to the identical trace,
	// through the same backend that produced it.
	s2, rrep, err := server.Recover(server.Options{
		Backend: s.cfg.Backend,
		Objects: s.objs,
		WAL:     s.disk,
	})
	if err != nil {
		return fmt.Errorf("re-recovering final wal: %w", err)
	}
	if !rrep.AuditOK || rrep.OrphanTops != 0 || rrep.FixupInforms != 0 {
		s2.Kill()
		return fmt.Errorf("final wal needed repair: %s", rrep.Summary())
	}
	trace2 := event.MarshalBinaryTrace(s2.Tree(), s2.Log())
	s2.Kill()
	if !bytes.Equal(s.rep.Trace, trace2) {
		return fmt.Errorf("final wal recovers to a different trace (%d vs %d bytes)", len(trace2), len(s.rep.Trace))
	}
	return nil
}
