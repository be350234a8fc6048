package sim

import (
	"runtime"
	"time"

	"nestedsg/internal/server"
)

// Event kinds flowing from the server (via hooks) and from the sessions'
// goroutines to the single driver goroutine.
type evKind uint8

const (
	// evPark: a session entered Hooks.LockWait and is blocked until the
	// driver wakes it.
	evPark evKind = iota
	// evCommitWait: a session logged a top-level COMMIT at log index seq
	// and is about to wait for the certification watermark.
	evCommitWait
	// evWalPark: an armed sync parked between its write and its fsync
	// (crashFile.Sync).
	evWalPark
	// evDone: a session's serve loop finished; all of its events are in
	// the log.
	evDone
	// evReturn: a client call made for the driver returned.
	evReturn
)

// simEvent is one message on the driver's central channel. Events carry
// the server generation that produced them; the driver discards events
// from a generation that has since been crashed.
type simEvent struct {
	gen  uint64
	kind evKind
	sess int64 // server session id
	seq  int   // log index of the top-level COMMIT (evCommitWait)
	// ended: RunTx or RunReadTx returned err; reads: a read-only one's.
	ended bool
	err   error
	reads []roRead
}

// simHooks implements server.Hooks for one server incarnation
// (generation). Stale hooks — ones whose generation was retired by a
// simulated crash — return immediately so the dying server's goroutines
// can run to completion without touching the simulation.
type simHooks struct {
	s   *sim
	gen uint64
}

// Now returns the virtual clock; only the driver advances it.
func (h *simHooks) Now() time.Time {
	return time.Unix(0, h.s.clock.Load())
}

// LockWait parks the session until the driver wakes it or the generation
// is retired. The server's own wake signal is ignored: acting on it would
// let a session run when another session's INFORM says so instead of when
// the seeded scheduler does. Every driver wake is therefore a spurious
// wake-up in the server's terms — the session re-tries its access, and a
// release or victim mark that happened meanwhile is found then.
func (h *simHooks) LockWait(sess int64, _ <-chan struct{}, _ time.Duration) {
	s := h.s
	s.mu.Lock()
	if h.gen != s.gen.Load() {
		s.mu.Unlock()
		return
	}
	wake := make(chan struct{})
	s.wakes[sess] = wake
	rel := s.release
	s.mu.Unlock()
	s.send(h.gen, simEvent{kind: evPark, sess: sess})
	select {
	case <-wake:
	case <-rel:
	}
}

// CertApply stalls the certifier (FaultCertStall): a run starting at or
// beyond an active stall's from blocks until the driver lifts the stall or
// retires the generation, so the watermark is pinned at from, and a run
// starting before it is cut there. The happens-before chain that makes the
// cut reliable: the driver installs a stall with from = LogLen() under
// s.mu, so any event at index ≥ from was appended — and therefore read by
// a combiner — after the install, and this read (also under s.mu) sees it. The server calls it with no server lock held, so a stalled
// certifier parks only the top-level committers queued on it.
func (h *simHooks) CertApply(index, max int) int {
	s := h.s
	for {
		s.mu.Lock()
		if h.gen != s.gen.Load() {
			s.mu.Unlock()
			return max
		}
		st := s.stall
		rel := s.release
		s.mu.Unlock()
		if st == nil {
			return max
		}
		if d := st.from - index; d > 0 {
			return min(d, max)
		}
		select {
		case <-st.released:
		case <-rel:
			return max
		}
	}
}

// CommitWait tells the driver the session is about to wait for the
// certification watermark to cover log sequence seq (notification only).
func (h *simHooks) CommitWait(sess int64, seq int) {
	h.s.send(h.gen, simEvent{kind: evCommitWait, sess: sess, seq: seq})
}

// SessionDone tells the driver all of the session's events are logged.
func (h *simHooks) SessionDone(sess int64) {
	h.s.send(h.gen, simEvent{kind: evDone, sess: sess})
}

// DrainWait advances the virtual clock instead of sleeping: the drain
// poll and accept-retry cadence cost no wall time and stay deterministic.
// Gosched lets the goroutines the waiter is polling for actually run.
func (h *simHooks) DrainWait(d time.Duration) {
	h.s.clock.Add(int64(d))
	runtime.Gosched()
}

// stallState is an active certifier stall: indexes >= from block until
// released is closed.
type stallState struct {
	from     int
	released chan struct{}
}

// send forwards an event to the driver unless the generation is stale.
// The channel is buffered generously; the driver is the only consumer and
// pumps whenever any session can make progress.
func (s *sim) send(gen uint64, ev simEvent) {
	if gen != s.gen.Load() {
		return
	}
	ev.gen = gen
	s.events <- ev
}

// crashDisk is an incarnation's WAL disk: a MemDisk whose segments park a
// sync between its write and its fsync once the scheduler arms them. A WAL
// holds unsynced bytes in that window only, so it is where FaultCrash
// lands to tear a write.
type crashDisk struct {
	*server.MemDisk
	s   *sim
	gen uint64
}

func (d *crashDisk) Create(name string) (server.SegmentFile, error) {
	f, err := d.MemDisk.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{SegmentFile: f, d: d}, nil
}

// crashFile is a segment of a crashDisk.
type crashFile struct {
	server.SegmentFile
	d *crashDisk
}

// Sync parks an armed sync, with its write done: it tells the scheduler,
// which crashes the incarnation there, and waits for the generation to
// retire. The frozen disk then drops the fsync. A sync that was not armed,
// or one of a retired generation, goes straight through.
func (f *crashFile) Sync() error {
	s := f.d.s
	s.mu.Lock()
	park := s.armed && f.d.gen == s.gen.Load()
	if park {
		s.armed = false
	}
	rel := s.release
	s.mu.Unlock()
	if park {
		s.send(f.d.gen, simEvent{kind: evWalPark})
		<-rel
	}
	return f.SegmentFile.Sync()
}
