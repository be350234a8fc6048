package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/core"
	"nestedsg/internal/generic"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/undolog"
)

func startServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	s, err := server.Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shutdownAndVerify drains the server and cross-checks the online
// certifier's final snapshot against the batch checker over the captured
// log — the end-of-run certificate every test ends with.
func shutdownAndVerify(t *testing.T, s *server.Server) *server.Final {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The server defines its names without looking them up: hold it to
	// the uniqueness it vouches for.
	if err := s.Tree().Validate(); err != nil {
		t.Fatalf("name tree: %v", err)
	}
	f := s.Final()
	if !f.Batch.OK {
		t.Fatalf("batch check failed:\n%s", f.Batch.Summary(s.Tree()))
	}
	if !f.Match {
		t.Fatal("online engine's records differ from the batch construction's")
	}
	// Final reads the log in place: its whole result must be a fresh check's
	// of the log copied out — verdict text, graph, sibling order and views.
	if err := f.Batch.Diff(s.Tree(), core.Check(s.Tree(), s.Log())); err != nil {
		t.Fatalf("Final's batch check differs from a recheck over the captured log: %v", err)
	}
	// Belt and braces, independent of Match: the materialized online graph
	// must equal the batch SG, labelled edges and all.
	if !s.OnlineSG().Equal(f.Batch.SG) {
		t.Fatal("online SG differs from the batch SG in its parents, children or labelled edges")
	}
	// The log is a behavior of the generic system, WAL or none.
	if err := generic.Accept(s.Tree(), s.Log(), s.Protocol()); err != nil {
		t.Fatalf("the log is not a behavior of the generic system: %v", err)
	}
	return f
}

func TestLoopbackSessionLifecycle(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x", "y"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	name, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "s") {
		t.Fatalf("unexpected top-level name %q", name)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(5)); err != nil {
		t.Fatal(err)
	}
	// The transaction reads its own write through the Moss lock it holds.
	v, err := c.Access("x", spec.OpRead, spec.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != spec.Int(5) {
		t.Fatalf("read own write: got %s, want 5", v)
	}
	// A subtransaction: child → access → commit.
	if _, err := c.Child(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("y", spec.OpWrite, spec.Int(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	seq, err := c.Commit() // top level: certified commit
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("commit seq must point at the COMMIT event, which cannot be log[0]")
	}
	v9, err := c.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if !v9.Acyclic || v9.Certified < seq {
		t.Fatalf("verdict after certified commit: %+v", v9)
	}

	// A second transaction on the same session, reading the committed state.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if v, err = c.Access("y", spec.OpRead, spec.Nil); err != nil || v != spec.Int(7) {
		t.Fatalf("committed write not visible: v=%v err=%v", v, err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	f := shutdownAndVerify(t, s)
	if f.Commits == 0 || f.Events == 0 {
		t.Fatalf("empty final report: %+v", f)
	}
	if got := s.Metrics().TopCommits.Load(); got != 2 {
		t.Fatalf("TopCommits = %d, want 2", got)
	}
}

func TestProtocolErrorsLeaveStateAlone(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Commit(); err == nil {
		t.Fatal("COMMIT outside a transaction must fail")
	}
	if err := c.Abort(); err == nil {
		t.Fatal("ABORT outside a transaction must fail")
	}
	if _, err := c.Access("x", spec.OpRead, spec.Nil); err == nil {
		t.Fatal("ACCESS outside a transaction must fail")
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err == nil {
		t.Fatal("nested BEGIN must fail")
	}
	// Wrong op for the object's spec: rejected without touching the tx.
	if _, err := c.Access("x", spec.OpEnq, spec.Int(1)); err == nil {
		t.Fatal("register must reject enq")
	}
	// The transaction is still usable afterwards.
	if _, err := c.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	shutdownAndVerify(t, s)
}

// TestConcurrentSoak is the -race soak: 8 clients hammer 4 shared objects
// with nested transactions; every commit must certify online, and the final
// snapshot must equal the batch certificate over the captured log.
func TestConcurrentSoak(t *testing.T) {
	objects := []string{"a", "b", "c", "d"}
	s := startServer(t, server.Options{
		Objects:     objects,
		LockTimeout: 500 * time.Millisecond,
	})
	const (
		clients = 8
		txPer   = 20
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for n := 0; n < txPer; n++ {
				err := c.RunTx(10, func(tx *client.Tx) error {
					for a := 0; a < 3; a++ {
						obj := objects[rng.Intn(len(objects))]
						var err error
						if rng.Intn(2) == 0 {
							_, err = tx.Access(obj, spec.OpRead, spec.Nil)
						} else {
							_, err = tx.Access(obj, spec.OpWrite, spec.Int(int64(rng.Intn(10))))
						}
						if err != nil {
							return err
						}
						if rng.Intn(4) == 0 {
							if _, err := tx.Child(); err != nil {
								return err
							}
							if _, err := tx.Access(obj, spec.OpWrite, spec.Int(int64(n))); err != nil {
								return err
							}
							if _, err := tx.Commit(); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					errCh <- fmt.Errorf("client %d tx %d: %w", i, n, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	f := shutdownAndVerify(t, s)
	m := s.Metrics()
	if m.Uncertified.Load() != 0 {
		t.Fatalf("%d commits failed certification", m.Uncertified.Load())
	}
	if got := m.TopCommits.Load(); got != clients*txPer {
		t.Fatalf("TopCommits = %d, want %d", got, clients*txPer)
	}
	t.Logf("soak: %d events, %d commits, %d aborts, %d retries, %d deadlock victims, %d timeouts",
		f.Events, f.Commits, f.Aborts, m.Retries.Load(), m.DeadlockAborts.Load(), m.LockTimeouts.Load())
}

// TestDeadlockResolution cross-locks two sessions (A holds x wants y, B
// holds y wants x); the waits-for detector (or the timeout safety net)
// aborts one, the client retries with backoff, and both must eventually
// commit.
func TestDeadlockResolution(t *testing.T) {
	s := startServer(t, server.Options{
		Objects:     []string{"x", "y"},
		LockTimeout: 400 * time.Millisecond,
	})
	type pair struct{ first, second string }
	order := map[string]pair{
		"A": {"x", "y"},
		"B": {"y", "x"},
	}
	gates := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{})}
	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	for _, who := range []string{"A", "B"} {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err == nil {
				defer c.Close()
				attempt := 0
				err = c.RunTx(10, func(tx *client.Tx) error {
					attempt++
					if _, err := tx.Access(order[who].first, spec.OpWrite, spec.Int(1)); err != nil {
						return err
					}
					if attempt == 1 {
						// First attempt only: wait until the peer holds its
						// first lock, guaranteeing the cross-lock. The write
						// was sent ahead of its answer, and so would a read
						// of the same object be, whose answer the attempt
						// holds: a synchronous read on the same connection
						// is what says this side's lock is held.
						if _, err := c.Access(order[who].first, spec.OpRead, spec.Nil); err != nil {
							return err
						}
						close(gates[who])
						other := "A"
						if who == "A" {
							other = "B"
						}
						<-gates[other]
					}
					_, err := tx.Access(order[who].second, spec.OpWrite, spec.Int(2))
					return err
				})
			}
			mu.Lock()
			errs[who] = err
			mu.Unlock()
		}(who)
	}
	wg.Wait()
	for who, err := range errs {
		if err != nil {
			t.Fatalf("session %s never committed: %v", who, err)
		}
	}
	m := s.Metrics()
	if m.DeadlockAborts.Load()+m.LockTimeouts.Load() == 0 {
		t.Fatal("cross-lock resolved without any server-side abort?")
	}
	if m.Retries.Load() == 0 {
		t.Fatal("no retry was recorded")
	}
	if got := m.TopCommits.Load(); got != 2 {
		t.Fatalf("TopCommits = %d, want 2", got)
	}
	f := shutdownAndVerify(t, s)
	if f.Aborts == 0 {
		t.Fatal("expected at least one ABORT in the log")
	}
	t.Logf("deadlock: %d deadlock aborts, %d timeouts, %d retries",
		m.DeadlockAborts.Load(), m.LockTimeouts.Load(), m.Retries.Load())
}

func TestDrainAbortsOpenTransactions(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Shutdown with an immediate deadline: the busy connection is
	// force-closed and its transaction aborted server-side.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	f := s.Final()
	if !f.Batch.OK || !f.Match {
		t.Fatalf("final check after drain failed:\n%s", f.Summary)
	}
	if f.Aborts == 0 {
		t.Fatal("the open transaction was not aborted during drain")
	}
	if s.Metrics().DrainAborts.Load() == 0 {
		t.Fatal("DrainAborts not counted")
	}
}

func TestRunTxAppErrorUnwindsChildren(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sentinel := errors.New("application failure")
	err = c.RunTx(3, func(tx *client.Tx) error {
		if _, err := tx.Child(); err != nil {
			return err
		}
		if _, err := tx.Access("x", spec.OpWrite, spec.Int(9)); err != nil {
			return err
		}
		return sentinel // leaves the child open; RunTx must unwind it
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	// The session is idle again: a fresh transaction works.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Access("x", spec.OpRead, spec.Nil); err != nil || v == spec.Int(9) {
		t.Fatalf("aborted write leaked: v=%v err=%v", v, err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	shutdownAndVerify(t, s)
}

func TestMetricsHandler(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	rr := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("metrics endpoint: %d", rr.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{"requests", "top_commits", "sg_acyclic", "sg_edges",
		"log_events", "certified", "req_p50_us", "commit_p99_us"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics snapshot missing %q", key)
		}
	}
	if tc, _ := snap["top_commits"].(float64); tc != 1 {
		t.Errorf("top_commits = %v, want 1", snap["top_commits"])
	}
	shutdownAndVerify(t, s)
}

func TestUndologProtocolServer(t *testing.T) {
	// The server is protocol-generic: the undo-log automaton certifies too.
	s := startServer(t, server.Options{
		Protocol:    undolog.Protocol{},
		DefaultSpec: spec.Counter{},
		Objects:     []string{"ctr"},
	})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.RunTx(5, func(tx *client.Tx) error {
			_, err := tx.Access("ctr", spec.OpIncrement, spec.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Access("ctr", spec.OpGet, spec.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != spec.Int(3) {
		t.Fatalf("counter = %s, want 3", v)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	shutdownAndVerify(t, s)
}
