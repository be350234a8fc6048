package server

import "time"

// Hooks intercepts the server's sources of timing nondeterminism so a test
// harness (internal/sim) can replace real time and real sleeps with a
// seeded virtual scheduler. The default implementation is real time; the
// hooks carry no semantics beyond scheduling — a server run under any
// Hooks produces a generic behavior by the same emission-discipline
// argument as the real-time server.
type Hooks interface {
	// Now replaces time.Now for lock-wait deadlines and for timing the
	// WAL's fsyncs: a sync leader waits for peers' COMMITs for at most as
	// long as the shorter of the last two fsyncs took (walWriter.settle).
	Now() time.Time
	// LockWait parks session sess, whose access was refused, until wake is
	// signalled (an INFORM on the object, a deadlock-victim mark, Kill or a
	// forced drain) or d — the rest of its LockTimeout — has passed. The
	// session re-checks everything when it returns, so returning early is a
	// legal spurious wake-up: a harness may ignore wake and return whenever
	// its own scheduler says so.
	LockWait(sess int64, wake <-chan struct{}, d time.Duration)
	// CertApply is called before a combining committer applies a run of
	// up to max log events, starting at index, to the certifier's graph;
	// it returns how many the run may hold (clamped to [1, max]). The
	// watermark already covers every event before index. A harness stalls
	// the certifier by blocking here at its stall point, and cuts a run
	// that would cross the point by returning the distance to it; the real
	// implementation returns max. It is called with no server lock held,
	// but with the certifier's mutex, so a stall parks every top-level
	// committer queued behind it — which is what a stalled certifier
	// means — while sessions, read-only BEGINs and metrics go on.
	CertApply(index, max int) int
	// CommitWait is called after a top-level COMMIT's events are logged
	// (and synced), just before the session waits for the certification
	// watermark to cover log sequence seq. Notification only; it must not
	// block on the harness.
	CommitWait(sess int64, seq int)
	// SessionDone is called when a session's serve loop has fully
	// finished: all of its events (including any disconnect abort) are in
	// the log and no further activity will come from it.
	SessionDone(sess int64)
	// DrainWait replaces the real-time waits of the server's maintenance
	// loops — Shutdown's drain poll and the accept loop's retry backoff —
	// so a seeded harness can advance a virtual clock instead of
	// sleeping.
	DrainWait(d time.Duration)
}

// realHooks is the production implementation: real clock, real sleeps, no
// interception.
type realHooks struct{}

func (realHooks) Now() time.Time { return time.Now() }

// LockWait blocks on the wake signal; the timer is the LockTimeout safety
// net, the only timer on the grant path.
func (realHooks) LockWait(_ int64, wake <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	select {
	case <-wake:
	case <-t.C:
	}
	t.Stop()
}

func (realHooks) CertApply(_, max int) int  { return max }
func (realHooks) CommitWait(int64, int)     {}
func (realHooks) SessionDone(int64)         {}
func (realHooks) DrainWait(d time.Duration) { time.Sleep(d) }
