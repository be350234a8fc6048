// Package server implements nestedsgd: a concurrent nested-transaction
// runtime in which every client session drives its own fragment of the
// transaction tree (begin-child / access / commit / abort) against shared
// generic objects, while a totally-ordered event log feeds an online
// core.Incremental certifier so that every committed response is backed by
// an acyclic SG(β) prefix.
//
// Unlike internal/generic — where one seeded scheduler simulates the
// nondeterminism of the paper's generic controller — the interleaving here
// is produced by real goroutine concurrency: sessions race for the
// per-object mutexes and the log mutex, and whatever total order the race
// yields is the behavior β that gets certified. The emission discipline that
// keeps β a generic behavior is local and cheap:
//
//   - each session appends the events of its own transaction subtree in
//     program order (sessions are sequential request/response loops), which
//     preserves every per-transaction well-formedness axiom;
//   - an access's REQUEST_COMMIT is appended while the object's mutex is
//     held, so the log's per-object operation order is exactly the order in
//     which the object automaton applied the operations, making the recorded
//     return values appropriate;
//   - INFORM events are appended under the same object mutex as the
//     automaton call, and a transaction's informs are emitted before its
//     parent can complete, preserving the ascending (leaf-to-root) inform
//     order the lock-visibility argument of §5.3 relies on.
//
// Deadlock is the blocking protocols' price for real concurrency: a session
// whose access is refused parks on the object's waiter queue until an INFORM
// wakes it, after checking whether the refusal closed a waits-for cycle (the
// youngest top on it aborts); a timeout is the safety net. Either
// way the server aborts the victim's whole top-level transaction and the
// client retries with bounded exponential backoff.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Options configures a server.
type Options struct {
	// Backend selects the object layer by name: "moss" (the default Moss
	// read/update locking), "undolog", or "mvto" (strict multiversion
	// timestamp ordering with a lock-free snapshot path for read-only
	// transactions). Empty behaves like "moss" unless Protocol is set.
	// Setting both Backend and Protocol is an error.
	Backend string
	// Protocol injects an arbitrary generic object automaton instead of a
	// named Backend (tests use it for broken protocols); default is Moss
	// read/update locking.
	Protocol object.Protocol
	// DefaultSpec is the serial specification given to objects created on
	// first access; default is the read/write Register.
	DefaultSpec spec.Spec
	// Objects pre-creates these labels at startup with DefaultSpec.
	Objects []string
	// LockTimeout bounds how long an access waits for its blockers before
	// the server aborts the session's top-level transaction. Waiters are
	// woken by every release and deadlocks are broken when they form, so
	// this is a safety net (a client that holds a lock and goes quiet); its
	// firing is counted in lock_timeouts. Default 1s.
	LockTimeout time.Duration
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)

	// WAL, when set, makes the event log durable: at each top-level
	// completion the log's unsynced suffix, with the names its events use,
	// is copied into framed records (see wal.go) and fsynced.
	// Servers with a WAL are built with Recover (which also handles an
	// empty WAL as a fresh start); New panics if WAL is set.
	WAL Disk
	// WALSegmentBytes rotates WAL segments at this size (default 1 MiB).
	WALSegmentBytes int
	// Hooks intercepts timing nondeterminism; default is real time.
	Hooks Hooks
}

func (o Options) withDefaults() Options {
	if o.DefaultSpec == nil {
		o.DefaultSpec = spec.Register{}
	}
	if o.LockTimeout <= 0 {
		o.LockTimeout = time.Second
	}
	if o.Hooks == nil {
		o.Hooks = realHooks{}
	}
	return o
}

// sharedObject is one generic object plus the mutex that serializes all
// automaton calls on it. The paper's automata take atomic steps; the mutex
// is that atomicity under real concurrency.
type sharedObject struct {
	mu sync.Mutex
	id tname.ObjID
	sp spec.Spec
	// label is the object's name, the tree's own string.
	label string
	g     object.Generic //sgvet:guardedby mu
	// waiters are the sessions parked on an access g refused; every INFORM
	// applied to g wakes them (waitsfor.go).
	waiters []*waitEntry //sgvet:guardedby mu
	// versions is the newest of the object's committed states, which the
	// certifier publishes and read-only transactions read (snapshot.go);
	// nil on a server without a snapshot store.
	versions atomic.Pointer[snapVersion]
}

// newSharedObject builds the object interned as id. On a server with a
// snapshot store its initial state is its one version.
//
//sgvet:holds s.mu
func (s *Server) newSharedObject(id tname.ObjID) *sharedObject {
	sp := s.tr.Spec(id)
	o := &sharedObject{id: id, sp: sp, label: s.tr.ObjectLabel(id), g: s.proto.New(s.tr, id)}
	if s.cert.snap != nil {
		o.versions.Store(initVersion(sp))
	}
	for int(id) >= len(s.objs) {
		s.objs = append(s.objs, nil)
	}
	s.objs[id] = o
	return o
}

// Server is a concurrent nested-transaction server.
type Server struct {
	opts Options

	// mu guards the tree (interning takes the write lock; every tree read —
	// including reads made inside object automata and the certifier — takes
	// the read lock) and the objs table.
	mu   sync.RWMutex
	tr   *tname.Tree     //sgvet:guardedby mu
	objs []*sharedObject //sgvet:guardedby mu

	log  *eventLog
	cert *certifier
	// backend names the object layer (Options.Backend, or the injected
	// protocol's name); proto builds every object automaton.
	backend string
	proto   object.Protocol
	metrics *Metrics
	waits   waitTable
	wal     *walWriter // nil without durability

	lis        net.Listener
	connMu     sync.Mutex
	conns      map[*session]struct{} //sgvet:guardedby connMu
	wg         sync.WaitGroup
	sessionSeq atomic.Int64
	draining   atomic.Bool
	killed     atomic.Bool
	shutdown   sync.Once

	// openTops counts the sessions with a logged top-level transaction open
	// (session.inTx); the WAL's sync leader settles only while it is
	// non-zero (walWriter.settle).
	openTops atomic.Int64
}

// New builds a server (not yet listening). The log opens with CREATE(T0),
// exactly like the generic runner: T0 models the environment and must be
// created before any top-level REQUEST_CREATE is well-formed. Durable
// servers are built with Recover instead.
func New(opts Options) *Server {
	if opts.WAL != nil {
		panic("server: Options.WAL is set; build durable servers with Recover")
	}
	s, _, err := newServer(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// newServer builds every server; New calls it without a WAL, Recover with
// one. A WAL is scanned straight into the name tree and the log, and its
// durable prefix is checked, replayed and certified in one pass, with the
// writer attached behind it (replayWAL); an empty log is seeded with
// CREATE(T0); then the prefix is stitched (nothing to stitch without a
// WAL) and the objects are pre-created. A durable server then syncs the
// WAL, and certifies the repairs and audits the log against a batch check
// before serving; a server without a WAL leaves its watermark at 0, so its
// certifier (and Hooks.CertApply) first runs at the first top-level
// COMMIT.
//
//sgvet:ignore[lockguard] construction is single-threaded: no session exists yet
func newServer(opts Options) (*Server, *RecoveryReport, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		tr:      tname.NewTree(),
		log:     &eventLog{},
		metrics: newMetrics(),
		conns:   make(map[*session]struct{}),
	}
	p, err := resolveProtocol(opts, s.tr)
	if err != nil {
		return nil, nil, err
	}
	s.proto, s.backend = p, opts.Backend
	if s.backend == "" {
		s.backend = p.Name()
	}
	s.cert = newCertifier(s)
	if opts.Backend == "mvto" {
		// Only mvto serves read-only transactions from certified snapshots.
		s.cert.snap = newSnapshotStore(s)
	}

	rep := &RecoveryReport{}
	var acc *generic.Acceptor
	if opts.WAL != nil {
		if acc, err = s.replayWAL(rep); err != nil {
			return nil, nil, err
		}
	}
	if s.log.len() == 0 {
		s.log.append(event.NewEvent(event.Create, tname.Root))
	}
	s.stitch(acc, rep)
	for _, label := range opts.Objects {
		if _, err := s.resolveObject(label); err != nil {
			return nil, nil, fmt.Errorf("server: pre-creating object %q: %w", label, err)
		}
	}
	if s.wal != nil {
		if err := s.wal.sync(); err != nil {
			return nil, nil, fmt.Errorf("server: recovery sync: %w", err)
		}
		if err := s.primeCertifier(rep); err != nil {
			return nil, nil, err
		}
	}
	return s, rep, nil
}

// Listen builds a server and starts accepting connections on addr.
func Listen(addr string, opts Options) (*Server, error) {
	s := New(opts)
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// Start begins accepting connections on addr; it is how a recovered
// server goes back online.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(lis)
	return nil
}

// Serve starts accepting connections from lis, which the server takes
// ownership of (Shutdown closes it). Start wraps it for TCP; tests inject
// fake listeners here to exercise the accept loop's error handling.
func (s *Server) Serve(lis net.Listener) {
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// acceptRetryMax caps the accept loop's exponential retry backoff.
const acceptRetryMax = 100 * time.Millisecond

// acceptLoop accepts connections until the listener reports net.ErrClosed
// (Shutdown closed it). Any other Accept error is treated as transient —
// EMFILE under fd pressure, ECONNABORTED from a half-open handshake — and
// retried with capped exponential backoff: exiting on those would leave a
// live, certifying server that silently accepts nothing forever.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		c, err := s.lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.draining.Load() {
				return
			}
			s.metrics.AcceptRetries.Add(1)
			s.logf("accept: %v (retrying)", err)
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > acceptRetryMax {
				backoff = acceptRetryMax
			}
			s.opts.Hooks.DrainWait(backoff)
			continue
		}
		backoff = 0
		s.ServeConn(c)
	}
}

// ServeConn serves one session over an arbitrary connection (the simulator
// uses net.Pipe ends) in the background, returning the session id, or -1
// if the server is draining and the connection was refused.
func (s *Server) ServeConn(c net.Conn) int64 {
	sn := newSession(s, c)
	s.connMu.Lock()
	if s.draining.Load() {
		s.connMu.Unlock()
		c.Close()
		return -1
	}
	s.conns[sn] = struct{}{}
	s.connMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sn.serve()
		s.connMu.Lock()
		delete(s.conns, sn)
		s.connMu.Unlock()
	}()
	return sn.id
}

// resolveObject returns the shared object for label, creating it (and
// interning the object name) on first use with the default spec.
func (s *Server) resolveObject(label string) (*sharedObject, error) {
	s.mu.RLock()
	if id := s.tr.Object(label); id != tname.NoObj {
		o := s.objs[id]
		s.mu.RUnlock()
		return o, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if id := s.tr.Object(label); id != tname.NoObj {
		return s.objs[id], nil
	}
	if label == "" {
		return nil, errors.New("empty object label")
	}
	// label may be a view of a session's frame buffer (wire.ParseRequest):
	// the tree keeps a copy.
	id := s.tr.AddObject(strings.Clone(label), s.opts.DefaultSpec)
	return s.newSharedObject(id), nil
}

// internTx defines a subtransaction (or access, when obj != NoObj) under
// the tree write lock. The session vouches that the name is new: every
// server-made label is unique by construction, and a client-chosen one has
// passed its parent frame's check (txFrame.name), so nothing is looked up.
// The WAL learns the name from the tree, in ID order, at the first sync
// whose events use it.
func (s *Server) internTx(parent tname.TxID, label string, obj tname.ObjID, op spec.Op) tname.TxID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr.Define(parent, label, obj, op)
}

// walSync makes the log durable through the present; sessions call it at
// top-level completion points. Concurrent completions coalesce onto one
// fsync (walWriter.sync). The first failure is sticky in the writer (also
// surfaced by WALError) and returned here, so the commit path can refuse
// to ack a completion the WAL never persisted.
func (s *Server) walSync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.sync()
}

// WALError reports the first durability failure, if any.
func (s *Server) WALError() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.stickyErr()
}

// LogLen reports the current event-log length.
func (s *Server) LogLen() int { return s.log.len() }

// withObj runs f while holding the object's mutex and the tree read lock —
// the automata read the tree on most calls. Lock order is always object
// mutex before tree lock; the tree write lock is never taken while an
// object mutex is held.
func (s *Server) withObj(o *sharedObject, f func()) {
	o.mu.Lock()
	s.mu.RLock()
	f()
	s.mu.RUnlock()
	o.mu.Unlock()
}

// AuditObjects runs every object's protocol self-audit (object.Auditor)
// under its mutex and returns the first violation. Safe on a live server;
// the simulator calls it after every crash recovery and at the final
// drain, so backend invariants are re-proved across torn-write recoveries.
func (s *Server) AuditObjects() error {
	s.mu.RLock()
	objs := append([]*sharedObject(nil), s.objs...)
	s.mu.RUnlock()
	for _, o := range objs {
		if o == nil {
			continue
		}
		var err error
		s.withObj(o, func() { //sgvet:holds o.mu, s.mu:r
			if au, ok := o.g.(object.Auditor); ok {
				err = au.Audit()
			}
		})
		if err != nil {
			s.mu.RLock()
			label := s.tr.ObjectLabel(o.id)
			s.mu.RUnlock()
			return fmt.Errorf("object %s: %w", label, err)
		}
	}
	return nil
}

// specOps lists the operation kinds each built-in specification interprets;
// the server validates access requests against it so a client cannot drive
// an automaton into an unsupported operation.
var specOps = map[string][]spec.OpKind{
	"register":  {spec.OpRead, spec.OpWrite},
	"counter":   {spec.OpIncrement, spec.OpDecrement, spec.OpGet},
	"account":   {spec.OpDeposit, spec.OpWithdraw, spec.OpBalance},
	"set":       {spec.OpInsert, spec.OpRemove, spec.OpMember, spec.OpSize},
	"appendlog": {spec.OpAppend, spec.OpLen},
	"queue":     {spec.OpEnq, spec.OpDeq},
}

func specAllows(sp spec.Spec, k spec.OpKind) bool {
	for _, ok := range specOps[sp.Name()] {
		if ok == k {
			return true
		}
	}
	return false
}

// Shutdown drains the server: the listener closes, idle connections are
// closed immediately, and connections with an open transaction get until
// ctx's deadline to finish before being force-closed (their transactions
// are then aborted server-side). A snapshot read-only transaction holds no
// lock and logged nothing, so its connection counts as idle. After the
// last session exits, one final catch-up certifies the whole log, so Final
// compares all of it. Shutdown is idempotent; the first call's ctx governs.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdown.Do(func() {
		s.draining.Store(true)
		if s.lis != nil {
			s.lis.Close()
		}
		for {
			s.connMu.Lock()
			n := 0
			for sn := range s.conns {
				if sn.idle() {
					sn.conn.Close()
				} else {
					n++
				}
			}
			s.connMu.Unlock()
			if n == 0 {
				break
			}
			if ctx.Err() != nil {
				s.killed.Store(true)
				s.waits.wakeAll()
				s.connMu.Lock()
				for sn := range s.conns {
					sn.conn.Close()
				}
				s.connMu.Unlock()
				err = ctx.Err()
				break
			}
			// The poll cadence goes through Hooks so a seeded harness can
			// drain on its virtual clock instead of real time.
			s.opts.Hooks.DrainWait(2 * time.Millisecond)
		}
		s.wg.Wait()
		s.cert.catchUp()
		if s.wal != nil {
			s.wal.close()
		}
	})
	return err
}

// Kill abandons the server without draining, simulating a process crash
// for everything above the WAL: connections are force-closed, in-flight
// transactions are NOT aborted in the durable log (recovery must do it),
// and no final sync is issued, nor any final certification: the watermark
// stays where the last top-level commit left it. A simulator that wants
// crash semantics freezes its MemDisk first, so the post-Kill appends never
// reach the "disk".
func (s *Server) Kill() {
	s.shutdown.Do(func() {
		s.killed.Store(true)
		s.draining.Store(true)
		if s.lis != nil {
			s.lis.Close()
		}
		s.connMu.Lock()
		for sn := range s.conns {
			sn.conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		if s.wal != nil {
			s.wal.closeNoSync()
		}
	})
}

// Final is the end-of-run report: the batch verdict over the captured log
// and its audit of the online certifier, which must agree.
type Final struct {
	// Events, Commits and Aborts summarize the captured log.
	Events, Commits, Aborts int
	// Batch is the offline Theorem 8/19 check over the whole log.
	Batch *core.Result
	// Match reports that the online certifier's engine holds the records
	// the batch construction accumulated (core.Checker.CheckAgainst), so
	// its graph equals Batch.SG, labelled edges included, and renders to
	// byte-identical DOT.
	Match bool
	// Summary is a human-readable multi-line rendering.
	Summary string
}

// Final certifies the rest of the log online — nothing after Shutdown,
// the tail after the last top-level commit after Kill — then recomputes
// the whole run offline, reading the log's records in place, and compares
// the online engine with it record for record, without materializing the
// online graph. Call only after Shutdown or Kill has returned (all
// sessions stopped); Recover audits with it before any session exists.
//
//sgvet:ignore[lockguard] post-Shutdown: sessions and certifier are quiesced, so the tree is immutable here
func (s *Server) Final() *Final {
	s.cert.catchUp()
	v := s.log.view()
	kinds := v.kinds()
	f := &Final{Events: v.n, Commits: kinds[event.Commit], Aborts: kinds[event.Abort]}
	f.Batch, f.Match = core.NewChecker(s.tr).CheckAgainst(v, s.cert.inc)
	verdict := f.Batch.Summary(s.tr)
	match := "online snapshot matches batch SG byte-for-byte"
	if !f.Match {
		match = "MISMATCH between online snapshot and batch SG"
	}
	f.Summary = fmt.Sprintf(
		"final certificate: %s\n  log: %d events, %d commits, %d aborts\n  %s\n",
		verdict, f.Events, f.Commits, f.Aborts, match)
	return f
}

// OnlineSG materializes the online certifier's SG(β) of the certified
// prefix: a canonical copy, independent of the engine. Final does not need
// it; it is for callers that hold the graph itself to a batch check. Call
// only after Shutdown or Kill has returned, as for Final.
//
//sgvet:ignore[lockguard] post-Shutdown: no combiner can run
func (s *Server) OnlineSG() *core.SG { return s.cert.inc.Snapshot() }

// Log returns a copy of the captured event log.
func (s *Server) Log() event.Behavior { return s.log.snapshot() }

// Backend reports the object backend's name ("moss", "undolog", "mvto", or
// an injected protocol's name).
func (s *Server) Backend() string { return s.backend }

// Protocol returns the protocol that builds every object automaton.
func (s *Server) Protocol() object.Protocol { return s.proto }

// Tree returns the server's system type. It must only be read concurrently
// with running sessions under external synchronization; tests use it after
// Shutdown.
//
//sgvet:ignore[lockguard] post-Shutdown accessor: callers hold no lock because nothing mutates the tree anymore
func (s *Server) Tree() *tname.Tree { return s.tr }
