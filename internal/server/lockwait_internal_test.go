package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/spec"
)

// Every test here runs with a 30 s LockTimeout: a lost wake-up hangs the
// test instead of being papered over by the safety net.
const noTimeout = 30 * time.Second

func listenT(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dialIn(t *testing.T, s *Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// awaitParked blocks until n sessions are registered in the wait table and
// returns their entries.
func awaitParked(t *testing.T, s *Server, n int) []*waitEntry {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if es := s.waits.entries(); len(es) == n {
			return es
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked sessions (have %d)", n, len(s.waits.entries()))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// assertNoWaiters checks that every wait has left both the wait table and
// its object's queue.
func assertNoWaiters(t *testing.T, s *Server) {
	t.Helper()
	if n := len(s.waits.entries()); n != 0 {
		t.Errorf("%d entries left in the wait table", n)
	}
	s.mu.RLock()
	objs := append([]*sharedObject(nil), s.objs...)
	s.mu.RUnlock()
	for _, o := range objs {
		o.mu.Lock()
		n := len(o.waiters)
		o.mu.Unlock()
		if n != 0 {
			t.Errorf("object %d still queues %d waiters", o.id, n)
		}
	}
}

type accessResult struct {
	v   spec.Value
	err error
}

func accessAsync(c *client.Conn, obj string, op spec.OpKind, arg spec.Value) <-chan accessResult {
	ch := make(chan accessResult, 1)
	go func() {
		v, err := c.Access(obj, op, arg)
		ch <- accessResult{v, err}
	}()
	return ch
}

// TestReleaseWakesWaiter: A holds a write on x and B's read of x parks
// behind it. A's top-level commit and A's abort both hand B its grant at
// once; a subtransaction's commit only moves the lock to its parent, so B
// is woken, refused again and parks again — until the top commits.
func TestReleaseWakesWaiter(t *testing.T) {
	for _, backend := range BackendNames() {
		for _, release := range []string{"commit", "abort", "subcommit"} {
			t.Run(backend+"/"+release, func(t *testing.T) {
				s := listenT(t, Options{Backend: backend, Objects: []string{"x"}, LockTimeout: noTimeout})
				defer s.Kill()
				a, b := dialIn(t, s), dialIn(t, s)
				_, err := a.Begin()
				must(t, err)
				if release == "subcommit" {
					_, err = a.Child()
					must(t, err)
				}
				_, err = a.Access("x", spec.OpWrite, spec.Int(7))
				must(t, err)
				_, err = b.Begin()
				must(t, err)
				got := accessAsync(b, "x", spec.OpRead, spec.Nil)
				awaitParked(t, s, 1)

				if release == "subcommit" {
					_, err = a.Commit() // the child: INFORM_COMMIT passes its lock to A's top
					must(t, err)
					deadline := time.Now().Add(10 * time.Second)
					// One refusal parked B; the second is its re-try after the wake.
					for s.metrics.BlockedPolls.Load() < 2 {
						if time.Now().After(deadline) {
							t.Fatal("the subtransaction's INFORM_COMMIT never woke the waiter")
						}
						time.Sleep(100 * time.Microsecond)
					}
					select {
					case r := <-got:
						t.Fatalf("waiter got through behind a lock its holder's parent inherited: %+v", r)
					default:
					}
					awaitParked(t, s, 1)
				}
				start := time.Now()
				if release == "abort" {
					must(t, a.Abort())
				} else {
					_, err = a.Commit()
					must(t, err)
				}
				select {
				case r := <-got:
					must(t, r.err)
					if wrote := r.v == spec.Int(7); wrote != (release != "abort") {
						t.Errorf("waiter read %v after %s", r.v, release)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("waiter still parked 10 s after the release")
				}
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Errorf("grant came %v after the release, want < 100ms", d)
				}
				if n := s.metrics.LockTimeouts.Load(); n != 0 {
					t.Errorf("lock_timeouts = %d, want 0", n)
				}
				assertNoWaiters(t, s)
			})
		}
	}
}

// TestCrossLockOneVictim: A holds x and B holds y; each then asks for the
// other's object. The refusal that closes the cycle finds it, and the one
// victim is the younger transaction — B — whether it is the session that
// detects the cycle or the one that parked first and has to be woken.
func TestCrossLockOneVictim(t *testing.T) {
	for _, first := range []string{"older parks first", "younger parks first"} {
		t.Run(first, func(t *testing.T) {
			s := listenT(t, Options{Objects: []string{"x", "y"}, LockTimeout: noTimeout})
			defer s.Kill()
			a, b := dialIn(t, s), dialIn(t, s)
			_, err := a.Begin()
			must(t, err)
			_, err = b.Begin()
			must(t, err)
			_, err = a.Access("x", spec.OpWrite, spec.Int(1))
			must(t, err)
			_, err = b.Access("y", spec.OpWrite, spec.Int(1))
			must(t, err)

			var gotA, gotB <-chan accessResult
			var parked *waitEntry
			start := time.Now()
			if first == "older parks first" {
				gotA = accessAsync(a, "y", spec.OpWrite, spec.Int(2))
				parked = awaitParked(t, s, 1)[0]
				start = time.Now()
				gotB = accessAsync(b, "x", spec.OpWrite, spec.Int(2))
			} else {
				gotB = accessAsync(b, "x", spec.OpWrite, spec.Int(2))
				parked = awaitParked(t, s, 1)[0]
				start = time.Now()
				gotA = accessAsync(a, "y", spec.OpWrite, spec.Int(2))
			}
			var ra, rb accessResult
			for i := 0; i < 2; i++ {
				select {
				case ra = <-gotA:
				case rb = <-gotB:
				case <-time.After(10 * time.Second):
					t.Fatal("the cross-lock did not resolve in 10 s")
				}
			}
			if d := time.Since(start); d > 50*time.Millisecond {
				t.Errorf("cross-lock resolved in %v, want < 50ms", d)
			}
			must(t, ra.err)
			if !errors.Is(rb.err, client.ErrTxAborted) || !strings.Contains(rb.err.Error(), "deadlock victim") {
				t.Fatalf("younger transaction: err = %v, want a deadlock-victim abort", rb.err)
			}
			_, err = a.Commit()
			must(t, err)
			if n := s.metrics.DeadlockAborts.Load(); n != 1 {
				t.Errorf("deadlock_aborts = %d, want exactly 1", n)
			}
			if n := s.metrics.LockTimeouts.Load(); n != 0 {
				t.Errorf("lock_timeouts = %d, want 0", n)
			}
			// A's commit informed both objects after the waits ended: the
			// departed entry must not have been signalled again.
			if n := len(parked.wake); n != 0 {
				t.Errorf("an INFORM signalled a waiter that had already left")
			}
			assertNoWaiters(t, s)
		})
	}
}

// TestKillWakesParkedSession: a session parked behind a lock that is never
// released must not sit out its timeout when the server is killed.
func TestKillWakesParkedSession(t *testing.T) {
	var (
		mu      sync.Mutex
		reasons []string
	)
	s := listenT(t, Options{
		Objects:     []string{"x"},
		LockTimeout: noTimeout,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "aborted") {
				mu.Lock()
				reasons = append(reasons, args[len(args)-1].(string))
				mu.Unlock()
			}
		},
	})
	a, b := dialIn(t, s), dialIn(t, s)
	_, err := a.Begin()
	must(t, err)
	_, err = a.Access("x", spec.OpWrite, spec.Int(1))
	must(t, err)
	_, err = b.Begin()
	must(t, err)
	got := accessAsync(b, "x", spec.OpWrite, spec.Int(2))
	awaitParked(t, s, 1)

	start := time.Now()
	s.Kill() // returns once every session has exited
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Kill took %v with a parked session, want < 100ms", d)
	}
	if r := <-got; r.err == nil {
		t.Error("the parked access was granted by a dying server")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 2 || reasons[0] != "server draining" || reasons[1] != "server draining" {
		t.Errorf("abort reasons = %q, want both sessions aborted as server draining", reasons)
	}
	if n := s.metrics.LockTimeouts.Load(); n != 0 {
		t.Errorf("lock_timeouts = %d, want 0", n)
	}
	// The holder's abort informed x after the waiter had gone.
	assertNoWaiters(t, s)
}

// TestLockTimeoutIsCounted: the safety net still ends a wait nothing else
// ends — a holder that goes quiet — and says so in lock_timeouts.
func TestLockTimeoutIsCounted(t *testing.T) {
	s := listenT(t, Options{Objects: []string{"x"}, LockTimeout: 30 * time.Millisecond})
	defer s.Kill()
	a, b := dialIn(t, s), dialIn(t, s)
	_, err := a.Begin()
	must(t, err)
	_, err = a.Access("x", spec.OpWrite, spec.Int(1))
	must(t, err)
	_, err = b.Begin()
	must(t, err)
	_, err = b.Access("x", spec.OpWrite, spec.Int(2))
	if !errors.Is(err, client.ErrTxAborted) || !strings.Contains(err.Error(), "lock wait timeout") {
		t.Fatalf("err = %v, want a lock-wait-timeout abort", err)
	}
	if n := s.metrics.LockTimeouts.Load(); n != 1 {
		t.Errorf("lock_timeouts = %d, want 1", n)
	}
	if n := s.metrics.BlockedPolls.Load(); n != 2 {
		t.Errorf("blocked_polls = %d, want 2 (the first refusal and the one after the timer)", n)
	}
	assertNoWaiters(t, s)
}
