package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

// countingConn counts the Write calls made on a connection: with the
// bufio.Writer both ends put in front of it, one call is one write(2).
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedSession connects one client to s — over loopback TCP, or over a
// net.Pipe, which buffers nothing — with both ends counting their writes.
func countedSession(t testing.TB, s *server.Server, pipe bool) (c *client.Conn, cli, srv *countingConn) {
	t.Helper()
	var cliEnd, srvEnd net.Conn
	if pipe {
		srvEnd, cliEnd = net.Pipe()
	} else {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		if cliEnd, err = net.Dial("tcp", lis.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if srvEnd, err = lis.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	cli, srv = &countingConn{Conn: cliEnd}, &countingConn{Conn: srvEnd}
	if s.ServeConn(srv) < 0 {
		t.Fatal("server refused the connection")
	}
	c = client.NewConn(cli)
	t.Cleanup(func() { c.Close() })
	return c, cli, srv
}

// TestPipelinedWritesPerTx counts what a RunTx costs on the wire: one
// client write and one server write per answer its body needs, however many
// frames that is. Made synchronous again, BEGIN costs one more of each and
// every Tx.Child another.
func TestPipelinedWritesPerTx(t *testing.T) {
	write := func(tx *client.Tx, v int64) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(v))
		return err
	}
	nested := func(depth int) func(tx *client.Tx) error {
		return func(tx *client.Tx) error {
			for i := 0; i < depth; i++ {
				if _, err := tx.Child(); err != nil {
					return err
				}
			}
			if err := write(tx, int64(depth)); err != nil {
				return err
			}
			for i := 0; i < depth; i++ {
				if _, err := tx.Commit(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	cases := []struct {
		name   string
		body   func(tx *client.Tx) error
		frames int64 // requests, for the record: the count that does not change
		writes int64 // per side
	}{
		// The benchmark's transaction: 4 accesses, the 2nd in a
		// subtransaction. 8 frames; BEGIN and CHILD need no answer of their
		// own, so 6 writes where a synchronous client makes 8.
		{"benchmark shape", benchmarkTx, 8, 6},
		// BEGIN rides with COMMIT.
		{"empty body", func(*client.Tx) error { return nil }, 2, 1},
		// BEGIN and three CHILDs ride with the access: 1 + 3 commits + 1.
		{"depth 3 before the first access", nested(3), 9, 5},
		// BEGIN and seven CHILDs fill the queue, so the eighth Child drains
		// it first: one write more than the 1 + 9 + 1 answers.
		{"9 nested children hit the queue bound", nested(9), 21, 12},
	}
	for _, pipe := range []bool{false, true} {
		transport := map[bool]string{false: "tcp", true: "pipe"}[pipe]
		s := server.New(server.Options{Objects: []string{"x"}})
		c, cli, srv := countedSession(t, s, pipe)
		if err := c.Ping(); err != nil { // settle both ends before counting
			t.Fatal(err)
		}
		for _, tc := range cases {
			req0 := s.Metrics().Requests.Load()
			cli0, srv0 := cli.writes.Load(), srv.writes.Load()
			if err := c.RunTx(1, tc.body); err != nil {
				t.Fatalf("%s/%s: %v", transport, tc.name, err)
			}
			if got := s.Metrics().Requests.Load() - req0; got != tc.frames {
				t.Errorf("%s/%s: server handled %d requests, want %d", transport, tc.name, got, tc.frames)
			}
			if got := cli.writes.Load() - cli0; got != tc.writes {
				t.Errorf("%s/%s: %d client writes, want %d", transport, tc.name, got, tc.writes)
			}
			if got := srv.writes.Load() - srv0; got != tc.writes {
				t.Errorf("%s/%s: %d server writes, want %d", transport, tc.name, got, tc.writes)
			}
		}
		c.Close()
		shutdownAndVerify(t, s)
	}
}

// TestPipelinedLargeFrameOverPipe: a request too big to share a write with
// the frames waiting ahead of it must not be sent behind them — over a
// net.Pipe the server would block answering BEGIN while the client blocks
// sending the rest of the access, neither reading.
func TestPipelinedLargeFrameOverPipe(t *testing.T) {
	s := server.New(server.Options{Objects: []string{"x"}})
	c, _, _ := countedSession(t, s, true)
	big := spec.Str(strings.Repeat("v", 3*4096))
	if err := c.RunTx(1, func(tx *client.Tx) error {
		if _, err := tx.Child(); err != nil {
			return err
		}
		if _, err := tx.Access("x", spec.OpWrite, big); err != nil {
			return err
		}
		if v, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil || v != big {
			return fmt.Errorf("read back %d bytes, %v", len(v.Str), err)
		}
		_, err := tx.Commit()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shutdownAndVerify(t, s)
}

// gatedDrainHooks is the real-time hook set with a drain poll that waits
// for the test: while gate is open (not closed) a Shutdown in progress
// stays in progress and closes no connection that has since gone idle.
type gatedDrainHooks struct {
	recordingHooks
	gate chan struct{}
}

func (h *gatedDrainHooks) DrainWait(time.Duration) {
	h.drains.Add(1)
	<-h.gate
}

// TestDeferredFrameErrors is the error surface of a frame whose answer the
// client reads late: whatever goes wrong with a deferred BEGIN or CHILD
// must come out of RunTx as it would have from a synchronous one, with
// every answer consumed and the session where the client thinks it is.
func TestDeferredFrameErrors(t *testing.T) {
	writeX := func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	}

	// (a) BEGIN refused: RunTx returns the refusal, once and bare, sends no
	// ABORT to a session that has no transaction, and the connection lives.
	refused := func(t *testing.T, s *server.Server, c *client.Conn, reason string) {
		t.Helper()
		aborts := s.Metrics().ClientAborts.Load()
		for _, body := range []func(*client.Tx) error{
			writeX,
			func(tx *client.Tx) error { // the body wraps what it gets
				if err := writeX(tx); err != nil {
					return fmt.Errorf("body: %w", err)
				}
				return nil
			},
			func(tx *client.Tx) error { // BEGIN rides behind a CHILD too
				if _, err := tx.Child(); err != nil {
					return err
				}
				return writeX(tx)
			},
			func(*client.Tx) error { return nil }, // BEGIN rides with COMMIT
		} {
			bodies := 0
			err := c.RunTx(3, func(tx *client.Tx) error { bodies++; return body(tx) })
			if err == nil || !strings.Contains(err.Error(), reason) {
				t.Fatalf("RunTx = %v, want the server's %q", err, reason)
			}
			if !strings.HasPrefix(err.Error(), "client: server rejected BEGIN: ") || strings.Count(err.Error(), reason) != 1 {
				t.Fatalf("refusal not returned once and bare: %v", err)
			}
			if errors.Is(err, client.ErrTxAborted) || bodies != 1 {
				t.Fatalf("refused BEGIN was retried: %d bodies, %v", bodies, err)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("connection unusable after a refused BEGIN: %v", err)
			}
		}
		if got := s.Metrics().ClientAborts.Load(); got != aborts {
			t.Fatalf("%d ABORTs handled for transactions that never began", got-aborts)
		}
	}
	t.Run("begin refused/server draining", func(t *testing.T) {
		h := &gatedDrainHooks{gate: make(chan struct{})}
		s := startServer(t, server.Options{Objects: []string{"x"}, Hooks: h})
		c := dialT(t, s)
		defer c.Close()
		if _, err := c.Begin(); err != nil { // busy, so Shutdown has to wait
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(context.Background()) }()
		waitFor(t, "the drain to start polling", func() bool { return h.drains.Load() >= 1 })
		if _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		refused(t, s, c, "server draining")
		close(h.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("begin refused/wal unavailable", func(t *testing.T) {
		disk := &failingDisk{MemDisk: server.NewMemDisk()}
		s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x"}})
		defer s.Kill()
		c := dialT(t, s)
		defer c.Close()
		disk.fail.Store(true)
		if err := c.RunTx(1, writeX); err == nil || !strings.Contains(err.Error(), "not durable") {
			t.Fatalf("commit on a failed disk: %v", err)
		}
		refused(t, s, c, "wal unavailable")
	})

	// (b) The access behind a deferred CHILD is a deadlock victim: CHILD's
	// OK and the access's TX_ABORTED are both consumed, and RunTx retries.
	t.Run("victim behind a deferred child", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x", "y"}, LockTimeout: 30 * time.Second})
		older, victim := dialT(t, s), dialT(t, s)
		defer older.Close()
		defer victim.Close()
		if _, err := older.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := older.Access("y", spec.OpWrite, spec.Int(1)); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		done := make(chan error, 1)
		go func() {
			done <- victim.RunTx(3, func(tx *client.Tx) error {
				attempts++
				if err := writeX(tx); err != nil {
					return err
				}
				if _, err := tx.Child(); err != nil {
					return err
				}
				if _, err := tx.Access("y", spec.OpWrite, spec.Int(2)); err != nil {
					return err // attempt 1: parks behind older, then dies for it
				}
				_, err := tx.Commit()
				return err
			})
		}()
		waitFor(t, "the younger transaction to park on y", func() bool { return s.Metrics().BlockedPolls.Load() >= 1 })
		// Closing the cycle makes the younger top-level the victim; its
		// locks pass to this access, and the retry then waits for COMMIT.
		if _, err := older.Access("x", spec.OpWrite, spec.Int(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := older.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("victim never committed: %v", err)
		}
		m := s.Metrics()
		if attempts != 2 || m.Retries.Load() != 1 || m.DeadlockAborts.Load() != 1 {
			t.Fatalf("%d attempts, %d retries, %d deadlock aborts; want 2, 1, 1", attempts, m.Retries.Load(), m.DeadlockAborts.Load())
		}
		if err := victim.Ping(); err != nil { // answers and requests still in step
			t.Fatal(err)
		}
		if m.LockTimeouts.Load() != 0 {
			t.Fatalf("%d lock timeouts", m.LockTimeouts.Load())
		}
		shutdownAndVerify(t, s)
	})

	// (c) The body fails by itself with a CHILD (and perhaps BEGIN) still
	// waiting: the unwinding's ABORTs travel behind them, depth + 1 of them.
	t.Run("body error with a child queued", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		c := dialT(t, s)
		defer c.Close()
		sentinel := errors.New("application failure")
		for i, body := range []func(tx *client.Tx) error{
			func(tx *client.Tx) error { // BEGIN answered, CHILD waiting
				if err := writeX(tx); err != nil {
					return err
				}
				if _, err := tx.Child(); err != nil {
					return err
				}
				return sentinel
			},
			func(tx *client.Tx) error { // BEGIN and CHILD both waiting
				if _, err := tx.Child(); err != nil {
					return err
				}
				return sentinel
			},
		} {
			if err := c.RunTx(3, body); !errors.Is(err, sentinel) {
				t.Fatalf("body %d: want the body's own error, got %v", i, err)
			}
			if got, want := s.Metrics().ClientAborts.Load(), int64(2*(i+1)); got != want {
				t.Fatalf("body %d: %d client aborts so far, want %d", i, got, want)
			}
		}
		v, err := c.Verdict()
		if err != nil || v.Aborts != 4 || v.Commits != 1 { // one access committed before its parents died
			t.Fatalf("verdict after unwinding: %+v, %v", v, err)
		}
		if _, err := c.Begin(); err != nil { // the session ended idle
			t.Fatal(err)
		}
		if err := c.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := s.AuditObjects(); err != nil {
			t.Fatal(err)
		}
		shutdownAndVerify(t, s)
	})

	// (d) A name is given once: CHILD n under a transaction that already
	// has a k<n> is refused before anything is logged.
	t.Run("child name already used", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		rs := newRawSession(t, nc)
		send := func(q wire.Request, want wire.Status) wire.Response {
			t.Helper()
			resp := rs.roundTrip(wire.AppendRequest(nil, q), q.Cmd)
			if resp.Status != want {
				t.Fatalf("%s: status %v (%s), want %v", q.Cmd, resp.Status, resp.Reason, want)
			}
			return resp
		}
		child5 := wire.Request{Cmd: wire.CmdChild, Named: true, N: 5}
		send(wire.Request{Cmd: wire.CmdBegin}, wire.StatusOK)
		if resp := send(child5, wire.StatusOK); resp.Name != "k5" {
			t.Fatalf("CHILD 5 named %q", resp.Name)
		}
		// Names are per parent: k5 may have a k5 of its own.
		send(child5, wire.StatusOK)
		send(wire.Request{Cmd: wire.CmdCommit}, wire.StatusOK)
		send(wire.Request{Cmd: wire.CmdCommit}, wire.StatusOK)
		before := s.LogLen()
		if resp := send(child5, wire.StatusError); !strings.Contains(resp.Reason, "k5") {
			t.Fatalf("refusal does not name the child: %q", resp.Reason)
		}
		if got := s.LogLen(); got != before {
			t.Fatalf("refused CHILD logged %d events", got-before)
		}
		// The cursor did not move: one COMMIT ends the top level, and the
		// label-less CHILD still gets a server-made name.
		if resp := send(wire.Request{Cmd: wire.CmdChild}, wire.StatusOK); !strings.HasPrefix(resp.Name, "c") {
			t.Fatalf("label-less CHILD named %q", resp.Name)
		}
		send(wire.Request{Cmd: wire.CmdCommit}, wire.StatusOK)
		send(wire.Request{Cmd: wire.CmdCommit}, wire.StatusOK)
		send(wire.Request{Cmd: wire.CmdCommit}, wire.StatusError) // idle: nothing left to commit
		nc.Close()
		shutdownAndVerify(t, s)
	})

	// (e) The client vanishes after sending a burst and before reading any
	// of its answers: the server aborts what the burst opened.
	t.Run("client vanishes mid-burst", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(nc)
		for _, q := range []wire.Request{
			{Cmd: wire.CmdBegin},
			{Cmd: wire.CmdChild, Named: true, N: 1},
			{Cmd: wire.CmdAccess, Obj: "x", Op: spec.OpWrite, Arg: spec.Int(7)},
		} {
			if err := wire.PutFrame(w, wire.AppendRequest(nil, q)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		nc.Close()
		waitFor(t, "the orphaned transaction's abort", func() bool { return s.Metrics().ClientAborts.Load() == 1 })
		if got := s.Metrics().Accesses.Load(); got != 1 {
			t.Fatalf("%d accesses ran, want the burst's 1", got)
		}
		if err := s.AuditObjects(); err != nil {
			t.Fatal(err)
		}
		if f := shutdownAndVerify(t, s); f.Aborts != 1 {
			t.Fatalf("%d ABORT events, want the top level's 1", f.Aborts)
		}
	})

	// (f) A whole frame followed by part of the next: the first is answered
	// before the server blocks on the rest. A server that held its answer
	// for as long as any byte was buffered would hang here.
	t.Run("frame split across writes", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var burst []byte
		for _, q := range []wire.Request{
			{Cmd: wire.CmdBegin},
			{Cmd: wire.CmdAccess, Obj: "x", Op: spec.OpWrite, Arg: spec.Int(7)},
		} {
			var b strings.Builder
			w := bufio.NewWriter(&b)
			if err := wire.WriteFrame(w, wire.AppendRequest(nil, q)); err != nil {
				t.Fatal(err)
			}
			burst = append(burst, b.String()...)
		}
		cut := len(burst) - 3 // inside the access frame's payload
		if _, err := nc.Write(burst[:cut]); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(nc)
		read := func(cmd wire.Cmd) {
			t.Helper()
			raw, err := wire.ReadFrame(r, nil)
			if err != nil {
				t.Fatalf("%s answer: %v", cmd, err)
			}
			if resp, err := wire.ParseResponse(cmd, raw); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("%s answer: %+v, %v", cmd, resp, err)
			}
		}
		read(wire.CmdBegin)
		if _, err := nc.Write(burst[cut:]); err != nil {
			t.Fatal(err)
		}
		read(wire.CmdAccess)
		nc.Close()
		shutdownAndVerify(t, s)
	})
}

// TestPipelinedBackendsOnlineEqualsBatch: the online certificate equals the
// batch one over logs whose CHILD names came from the clients. The sim and
// the differential harness cover the label-less protocol; this is their cell
// for bursts — RunTx traffic, nesting up to depth 3, four clients on two hot
// objects and two cool ones — on every backend.
func TestPipelinedBackendsOnlineEqualsBatch(t *testing.T) {
	objects := []string{"h0", "h1", "c0", "c1"}
	for _, backend := range server.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			s := startServer(t, server.Options{Backend: backend, Objects: objects, LockTimeout: 2 * time.Second})
			const (
				clients = 4
				txPer   = 25
			)
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := client.Dial(s.Addr().String())
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					rng := rand.New(rand.NewSource(int64(i)))
					for n := 0; n < txPer; n++ {
						if err := c.RunTx(20, func(tx *client.Tx) error { return nestedBody(tx, rng, objects, 0) }); err != nil {
							errs <- fmt.Errorf("client %d tx %d: %w", i, n, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if err := s.AuditObjects(); err != nil {
				t.Fatal(err)
			}
			shutdownAndVerify(t, s) // Batch.OK and Match
			m := s.Metrics()
			if m.Uncertified.Load() != 0 || m.LockTimeouts.Load() != 0 {
				t.Fatalf("%d uncertified commits, %d lock timeouts", m.Uncertified.Load(), m.LockTimeouts.Load())
			}
			if got := m.TopCommits.Load(); got != clients*txPer {
				t.Fatalf("TopCommits = %d, want %d", got, clients*txPer)
			}
		})
	}
}

// nestedBody runs one to three steps at this level: an access, mostly to a
// hot object, or — above depth 3 — a subtransaction that does the same.
// Subtransactions are opened back to back as often as not, so CHILD frames
// queue behind one another and behind BEGIN.
func nestedBody(tx *client.Tx, rng *rand.Rand, objects []string, depth int) error {
	for step, steps := 0, 1+rng.Intn(3); step < steps; step++ {
		if depth < 3 && rng.Intn(2) == 0 {
			if _, err := tx.Child(); err != nil {
				return err
			}
			if err := nestedBody(tx, rng, objects, depth+1); err != nil {
				return err
			}
			if _, err := tx.Commit(); err != nil {
				return err
			}
			continue
		}
		obj := objects[rng.Intn(2)] // hot
		if rng.Intn(4) == 0 {
			obj = objects[2+rng.Intn(2)]
		}
		var err error
		if rng.Intn(2) == 0 {
			_, err = tx.Access(obj, spec.OpRead, spec.Nil)
		} else {
			_, err = tx.Access(obj, spec.OpWrite, spec.Int(int64(rng.Intn(100))))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
