// Package sim is a deterministic fault-injection simulator for the
// nested-transaction server. It wraps the real server — real sessions,
// real locking automata, real WAL, real certifier — behind a seeded
// virtual scheduler: a single driver goroutine issues every request,
// wakes every parked lock wait, advances a virtual clock, and samples
// faults (connection drops mid-transaction, drops after REQUEST_COMMIT,
// certifier stalls, lock-timeout storms, forced deadlocks, and full
// process crashes with torn-write recovery) from one splitmix64 stream. Two runs with the same
// Config produce byte-identical event traces, so any failing run
// reproduces from its uint64 seed alone.
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
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// FaultDropAfterCommit sends COMMIT and closes the connection before
	// reading the response: the commit is durable but unacknowledged.
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
	// Request counters, as observed by the driver.
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
	// DeadlockAborts sums the server's deadlock_aborts counter over every
	// incarnation: the waits-for cycle victims, read before each crash and
	// at the final drain. Like TornCrashes it is not part of Summary().
	DeadlockAborts int64
	// CertParks counts the top-level commits that parked on a stalled
	// certifier — the work FaultCertStall exists to hold up. Not part of
	// Summary().
	CertParks int
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

// Slot phases: where one client session is in its request cycle.
const (
	phIdle     = iota // no outstanding request
	phAwait           // request sent, no settlement yet
	phParkLock        // blocked access parked in LockWait
	phParkCert        // top-level commit parked behind a stalled certifier
	phClosed          // connection dropped, waiting for SessionDone
)

// slot is one simulated client session.
type slot struct {
	idx     int
	conn    net.Conn
	w       *bufio.Writer
	out     []byte
	sid     int64 // server session id
	connID  int   // bumped on every reconnect; stale readers are ignored
	phase   int
	lastCmd wire.Cmd
	lastRO  bool   // the in-flight request was a read-only BEGIN
	lastObj string // object of the in-flight ACCESS (read-set recording)
	inTx    bool
	depth   int
	ro      bool     // the open top-level transaction is read-only
	roReads []roRead // reads of the open read-only transaction (snapshot backends)
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
		done:    make(map[int64]bool),
		bySid:   make(map[int64]*slot),
		roSnap:  cfg.Backend == "mvto",
	}
	s.clock.Store(1)
	for i := 0; i < cfg.Objects; i++ {
		s.objs = append(s.objs, fmt.Sprintf("r%d", i))
	}
	if err := s.boot(server.NewMemDisk(), nil); err != nil {
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
func (s *sim) boot(disk *server.MemDisk, into []*slot) error {
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
	if err := s.checkOracle(); err != nil {
		return err
	}
	if err := srv.AuditObjects(); err != nil {
		return fmt.Errorf("post-recovery object audit: %w", err)
	}
	s.bySid = make(map[int64]*slot)
	if into == nil {
		for i := 0; i < s.cfg.Sessions; i++ {
			s.slots = append(s.slots, &slot{idx: i})
		}
		into = s.slots
	}
	for _, sl := range into {
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
	sl.conn = clientEnd
	sl.w = bufio.NewWriter(clientEnd)
	sl.sid = sid
	sl.connID++
	sl.phase = phIdle
	sl.inTx = false
	sl.depth = 0
	sl.ro = false
	sl.roReads = nil
	s.bySid[sid] = sl
	go s.reader(s.gen.Load(), sl.idx, sl.connID, clientEnd)
	return nil
}

// reader forwards response frames (or the terminal transport error) from
// one connection to the driver.
func (s *sim) reader(gen uint64, idx, connID int, c net.Conn) {
	r := bufio.NewReader(c)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			s.send(gen, simEvent{kind: evResp, slot: idx, conn: connID, err: err})
			return
		}
		buf = payload
		s.send(gen, simEvent{kind: evResp, slot: idx, conn: connID, data: append([]byte(nil), payload...)})
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
	return s.perform(sl, s.nextRequest(sl))
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

// nextRequest samples the next workload request for an idle slot. The
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

// perform sends one request on sl and pumps events until the session
// settles (response, lock park, or certifier park).
func (s *sim) perform(sl *slot, q wire.Request) error {
	sl.out = wire.AppendRequest(sl.out[:0], q)
	if err := wire.WriteFrame(sl.w, sl.out); err != nil {
		return fmt.Errorf("slot %d: write %s: %w", sl.idx, q.Cmd, err)
	}
	sl.lastCmd = q.Cmd
	sl.lastRO = q.RO
	sl.lastObj = q.Obj
	sl.phase = phAwait
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
	case evResp:
		sl := s.slots[ev.slot]
		if ev.conn != sl.connID {
			return nil // a reader of a replaced connection winding down
		}
		if ev.err != nil {
			if sl.phase == phClosed {
				return nil // expected: we dropped this connection
			}
			return fmt.Errorf("slot %d: transport error: %w", sl.idx, ev.err)
		}
		if sl.phase == phClosed {
			return nil // response raced our drop; the session is dying
		}
		resp, err := wire.ParseResponse(sl.lastCmd, ev.data)
		if err != nil {
			return fmt.Errorf("slot %d: parse %s response: %w", sl.idx, sl.lastCmd, err)
		}
		return s.applyResp(sl, resp)
	}
	return nil
}

// applyResp folds a response into the slot's workload cursor.
func (s *sim) applyResp(sl *slot, resp wire.Response) error {
	sl.phase = phIdle
	switch resp.Status {
	case wire.StatusOK:
		switch sl.lastCmd {
		case wire.CmdBegin:
			// The flag promises a COMMIT answered OK whatever happens, so it
			// must say exactly what the snapshot path serves.
			if want := sl.lastRO && s.roSnap; resp.Snapshot != want {
				return fmt.Errorf("slot %d: BEGIN (ro %v) answered with snapshot flag %v, want %v", sl.idx, sl.lastRO, resp.Snapshot, want)
			}
			sl.inTx = true
			sl.depth = 1
			sl.ro = sl.lastRO
			sl.roReads = nil
			s.rep.Begins++
			if sl.ro {
				s.rep.ROBegins++
			}
		case wire.CmdChild:
			sl.depth++
		case wire.CmdAccess:
			s.rep.Accesses++
			if sl.ro {
				s.rep.ROReads++
				if s.roSnap {
					sl.roReads = append(sl.roReads, roRead{obj: sl.lastObj, val: resp.Value})
				}
			}
		case wire.CmdCommit:
			if sl.depth--; sl.depth == 0 {
				sl.inTx = false
				s.rep.TopCommits++
				s.endRO(sl)
			}
		case wire.CmdAbort:
			if sl.depth--; sl.depth == 0 {
				sl.inTx = false
				s.endRO(sl)
			}
		default:
			// CmdVerdict/CmdPing responses carry no cursor state; the
			// workload generator never sends them anyway.
		}
	case wire.StatusTxAborted:
		if sl.ro && s.roSnap {
			return fmt.Errorf("slot %d: snapshot read-only transaction aborted by server: %s", sl.idx, resp.Reason)
		}
		sl.inTx = false
		sl.depth = 0
		sl.ro = false
		sl.roReads = nil
		s.rep.TxAborts++
	default:
		return fmt.Errorf("slot %d: server rejected %s: %s", sl.idx, sl.lastCmd, resp.Reason)
	}
	return nil
}

// endRO closes out a finished read-only top-level transaction: on a
// snapshot backend its completed read set is queued for the
// prefix-consistency validation in finish().
func (s *sim) endRO(sl *slot) {
	if sl.ro && s.roSnap && len(sl.roReads) > 0 {
		s.roSets = append(s.roSets, sl.roReads)
	}
	sl.ro = false
	sl.roReads = nil
}

// fault injects one fault; did=false means the class is not applicable in
// the current state and the step should fall through to normal work.
func (s *sim) fault(class FaultClass) (did bool, err error) {
	switch class {
	case FaultDrop:
		var open []*slot
		for _, sl := range s.slots {
			if sl.phase == phIdle && sl.inTx {
				open = append(open, sl)
			}
		}
		if len(open) == 0 {
			return false, nil
		}
		s.rep.Faults[class]++
		return true, s.drop(open[s.r.intn(len(open))], wire.Request{})
	case FaultDropAfterCommit:
		if s.stalled() {
			// The dropped session's COMMIT parks on the stalled watermark,
			// and with it the driver's wait for the session to retire.
			return false, nil
		}
		var open []*slot
		for _, sl := range s.slots {
			if sl.phase == phIdle && sl.inTx {
				open = append(open, sl)
			}
		}
		if len(open) == 0 {
			return false, nil
		}
		s.rep.Faults[class]++
		return true, s.drop(open[s.r.intn(len(open))], wire.Request{Cmd: wire.CmdCommit})
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

// drop closes a slot's connection (optionally sending one last frame
// first — the drop-after-commit variant), waits for the server to retire
// the session, and reconnects the slot.
func (s *sim) drop(sl *slot, last wire.Request) error {
	if last.Cmd != wire.CmdInvalid {
		sl.out = wire.AppendRequest(sl.out[:0], last)
		if err := wire.WriteFrame(sl.w, sl.out); err != nil {
			return fmt.Errorf("slot %d: write %s before drop: %w", sl.idx, last.Cmd, err)
		}
		sl.lastCmd = last.Cmd
	}
	sl.phase = phClosed
	sl.conn.Close()
	sid := sl.sid
	if err := s.pumpUntil(func() bool { return s.done[sid] }); err != nil {
		return err
	}
	delete(s.bySid, sid)
	return s.connect(sl)
}

// crossWrites drives sessions a and b into a crossing write conflict:
// a writes x then wants y, b writes y then wants x. When both halves of
// the cross block, the waits-for graph has the cycle a → b → a, which the
// server's deadlock detector (or lock timeout) must break by aborting a
// victim. Each access is only issued while its session is still idle
// inside its transaction — an earlier park or abort leaves a harmless
// partial pattern.
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
		if err := s.perform(st.sl, q); err != nil {
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
	// Every session is settled, so the counter is a function of the
	// schedule; once the generation retires, parked sessions run again.
	s.rep.DeadlockAborts += s.srv.Metrics().DeadlockAborts.Load()
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
		sl.conn.Close()
	}
	for {
		select {
		case <-s.events: // drain stale events
			continue
		default:
		}
		break
	}
	s.rep.Recoveries++
	return s.boot(crashDisk, s.slots)
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
// parked session to its resolution, abort the open transactions, retire
// all sessions, shut down, and verify the final certificate — the online
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
	for _, sl := range s.slots {
		for sl.inTx {
			if err := s.perform(sl, wire.Request{Cmd: wire.CmdAbort}); err != nil {
				return fmt.Errorf("final abort: %w", err)
			}
			if sl.phase != phIdle {
				return fmt.Errorf("final abort parked slot %d (phase %d)", sl.idx, sl.phase)
			}
		}
	}
	for _, sl := range s.slots {
		sl.phase = phClosed
		sl.conn.Close()
	}
	if err := s.pumpUntil(func() bool {
		for _, sl := range s.slots {
			if !s.done[sl.sid] {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	if err := s.srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	s.rep.DeadlockAborts += s.srv.Metrics().DeadlockAborts.Load()
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
