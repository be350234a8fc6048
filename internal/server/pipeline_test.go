package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
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
// client write and one server write per answer its body reads — each read,
// plus the COMMIT — however many frames that is. Made synchronous again,
// BEGIN costs one more of each, and so does every Tx.Child, every write and
// every subtransaction's Commit that a read or the COMMIT does not follow at
// once.
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
		// The benchmark's transaction: 4 writes, the 2nd in a subtransaction.
		// 8 frames and nothing read before the COMMIT, so 1 write where a
		// client waiting only for what it reads or names itself made 6 and a
		// synchronous one 8.
		{"benchmark shape", benchmarkTx, 8, 1},
		// The same with reads for the 1st and 3rd access (young's 50 % mix):
		// [BEGIN r] [CHILD w COMMIT r] [w COMMIT], where 6 and 8 were paid.
		{"young's mix", halfReadTx, 8, 3},
		// Four reads: each waits, and the sub-commit rides with the third.
		{"reads only", readOnlyTx, 8, 5},
		// Four writes, no subtransaction: all ride with the COMMIT.
		{"writes only", func(tx *client.Tx) error {
			for v := int64(0); v < 4; v++ {
				if err := write(tx, v); err != nil {
					return err
				}
			}
			return nil
		}, 6, 1},
		// BEGIN rides with COMMIT.
		{"empty body", func(*client.Tx) error { return nil }, 2, 1},
		// BEGIN, three CHILDs, the write and three sub-commits all ride
		// with the COMMIT: a burst is bounded only by the write buffer.
		{"depth 3 before the first access", nested(3), 9, 1},
		// So do BEGIN, nine CHILDs, the write and nine sub-commits: 1 write
		// for 21 frames, where a bound of 8 requests made it 3.
		{"9 nested children, one write", nested(9), 21, 1},
		// BEGIN, 20 blind writes and a read are one write, and the COMMIT
		// the second, where a bound of 8 requests made it 4.
		{"20 blind writes and a read", func(tx *client.Tx) error {
			for v := int64(1); v <= 20; v++ {
				if err := write(tx, v); err != nil {
					return err
				}
			}
			if v, err := tx.Access("y", spec.OpRead, spec.Nil); err != nil || v != spec.Int(0) {
				return fmt.Errorf("read y = %s, %v; want 0", v, err)
			}
			return nil
		}, 23, 2},
	}
	for _, pipe := range []bool{false, true} {
		transport := map[bool]string{false: "tcp", true: "pipe"}[pipe]
		s := server.New(server.Options{Objects: []string{"x", "y"}})
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

	// Read-only: the four-read shape through RunReadTx, three times, then a
	// PING. On mvto the BEGIN answer says "snapshot", so the COMMIT, whose
	// answer carries nothing, is left in the write buffer, and the next
	// transaction's first write carries it, as does the PING's. The first
	// transaction, on a cold connection, pays 4 writes each way, one a read;
	// each later one pays 1, its BEGIN, since the connection's view holds
	// all four keys and the BEGIN's answer brings them to its cut: its 4
	// reads send nothing, and its frames are the BEGIN, the CHILD and the
	// two COMMITs. On moss read-only is degraded to an ordinary transaction,
	// whose COMMIT answer is the certifier's verdict: that is waited for,
	// and every read is sent: 5 writes and 8 frames every time.
	for _, tc := range []struct {
		backend    string
		cold, warm int64 // per side: the first transaction, each later one
		frames     int64 // requests the server handles: 3 transactions and a PING
	}{{"mvto", 4, 1, 8 + 4 + 4 + 1}, {"moss", 5, 5, 3*8 + 1}} {
		for _, pipe := range []bool{false, true} {
			name := tc.backend + "/" + map[bool]string{false: "tcp", true: "pipe"}[pipe]
			s := server.New(server.Options{Backend: tc.backend, Objects: []string{"a", "b", "c", "d"}})
			c, cli, srv := countedSession(t, s, pipe)
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			req0 := s.Metrics().Requests.Load()
			for i := 0; i < 3; i++ {
				cli0, srv0 := cli.writes.Load(), srv.writes.Load()
				if err := c.RunReadTx(1, readOnlyTx); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := tc.warm
				if i == 0 {
					want = tc.cold
				}
				if got := cli.writes.Load() - cli0; got != want {
					t.Errorf("%s, read-only tx %d: %d client writes, want %d", name, i, got, want)
				}
				if got := srv.writes.Load() - srv0; got != want {
					t.Errorf("%s, read-only tx %d: %d server writes, want %d", name, i, got, want)
				}
			}
			cli0, srv0 := cli.writes.Load(), srv.writes.Load()
			if err := c.Ping(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cw, sw := cli.writes.Load()-cli0, srv.writes.Load()-srv0; cw != 1 || sw != 1 {
				t.Errorf("%s: the PING took %d client and %d server writes, want 1 and 1", name, cw, sw)
			}
			if got := s.Metrics().Requests.Load() - req0; got != tc.frames {
				t.Errorf("%s: server handled %d requests, want %d", name, got, tc.frames)
			}
			c.Close()
			shutdownAndVerify(t, s)
		}
	}
}

// TestBurstIsOneWrite: a burst bounded by the write buffer alone, not by a
// count of requests, still never blocks either end of a net.Pipe, which
// buffers nothing, however many bytes the answers are.
func TestBurstIsOneWrite(t *testing.T) {
	// Eight objects hold 600 bytes each. A warm connection's snapshot
	// transaction reads all eight after a commit rewrote them: its BEGIN's
	// answer pushes the eight new values, 4.8 KiB, more than the server's
	// 4 KiB write buffer holds, so the server writes while the client
	// reads; it must not write before it has read the whole burst, or both
	// ends of the pipe would wait for ever.
	var objs []string
	for i := 0; i < 8; i++ {
		objs = append(objs, fmt.Sprintf("o%d", i))
	}
	big := func(i int) spec.Value { return spec.Str(strings.Repeat(string(rune('a'+i)), 600)) }
	s := server.New(server.Options{Backend: "mvto", Objects: objs})
	c, cli, srv := countedSession(t, s, true)
	if err := cli.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	writeAll := func(at func(i int) spec.Value) {
		t.Helper()
		if err := c.RunTx(1, func(tx *client.Tx) error {
			for i, obj := range objs {
				if _, err := tx.Access(obj, spec.OpWrite, at(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(tx *client.Tx) error {
		for i, obj := range objs {
			if v, err := tx.Access(obj, spec.OpRead, spec.Nil); err != nil || v != big(i) {
				return fmt.Errorf("read %s: %d bytes, %v", obj, len(v.Str), err)
			}
		}
		return nil
	}
	writeAll(func(int) spec.Value { return spec.Int(0) })
	if err := c.RunReadTx(1, func(tx *client.Tx) error { // fills the view
		for _, obj := range objs {
			if _, err := tx.Access(obj, spec.OpRead, spec.Nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	writeAll(big)
	served := s.Metrics().SnapshotReads.Load()
	cli0, srv0 := cli.writes.Load(), srv.writes.Load()
	if err := c.RunReadTx(1, readAll); err != nil {
		t.Fatal(err)
	}
	if got := cli.writes.Load() - cli0; got != 1 {
		t.Errorf("the warm transaction made %d client writes, want 1", got)
	}
	if got := srv.writes.Load() - srv0; got < 2 {
		t.Errorf("the server answered in %d writes: the answers did not exceed its buffer", got)
	}
	if got := s.Metrics().SnapshotReads.Load() - served; got != 8 {
		t.Errorf("the server served %d snapshot reads, want 8", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shutdownAndVerify(t, s)
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
// client reads late: whatever goes wrong with a deferred BEGIN, CHILD, write
// or subtransaction COMMIT must come out of RunTx as it would have from a
// synchronous one — reported by the next request that waits, not by the
// call that sent it — with every answer consumed and the session where the
// client thinks it is.
func TestDeferredFrameErrors(t *testing.T) {
	writeX := func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	}

	// (a) BEGIN refused: RunTx returns the refusal, once and bare, sends no
	// ABORT to a session that has no transaction, and the connection lives —
	// whether a read in the body meets the refusal or every request of the
	// body was sent ahead and only the COMMIT, or RunTx's look at what the
	// body left open, reads it.
	refused := func(t *testing.T, s *server.Server, c *client.Conn, reason string) {
		t.Helper()
		aborts := s.Metrics().ClientAborts.Load()
		for _, body := range []func(*client.Tx) error{
			writeX, // sent ahead: the refusal arrives with the COMMIT
			func(tx *client.Tx) error { // the body wraps what its read gets
				if err := writeX(tx); err != nil {
					return err
				}
				if _, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil {
					return fmt.Errorf("body: %w", err)
				}
				return nil
			},
			func(tx *client.Tx) error { // BEGIN rides behind a CHILD too, left open
				if _, err := tx.Child(); err != nil {
					return err
				}
				return writeX(tx)
			},
			func(tx *client.Tx) error { // a whole subtransaction sent ahead
				if _, err := tx.Child(); err != nil {
					return err
				}
				if err := writeX(tx); err != nil {
					return err
				}
				_, err := tx.Commit()
				return err
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

	// The name check holds for names out of ascending order, the
	// order this repository's client never uses: each name once per parent,
	// whatever order the names come in.
	t.Run("child names out of order", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		rs := newRawSession(t, nc)
		send := func(q wire.Request, want wire.Status) {
			t.Helper()
			if resp := rs.roundTrip(wire.AppendRequest(nil, q), q.Cmd); resp.Status != want {
				t.Fatalf("%s %d: status %v (%s), want %v", q.Cmd, q.N, resp.Status, resp.Reason, want)
			}
		}
		child := func(n uint64) wire.Request { return wire.Request{Cmd: wire.CmdChild, Named: true, N: n} }
		commit := wire.Request{Cmd: wire.CmdCommit}
		send(wire.Request{Cmd: wire.CmdBegin}, wire.StatusOK)
		for _, n := range []uint64{7, 3, 9, 5, 1} {
			send(child(n), wire.StatusOK)
			send(commit, wire.StatusOK)
		}
		for _, n := range []uint64{1, 3, 5, 7, 9} {
			send(child(n), wire.StatusError)
		}
		for _, n := range []uint64{2, 8, 4} {
			send(child(n), wire.StatusOK)
			send(commit, wire.StatusOK)
		}
		send(child(4), wire.StatusError)
		send(commit, wire.StatusOK)
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

	// From here on the deferred request is a write, whose OK the body has
	// been handed already, or a subtransaction's COMMIT, whose seq it has
	// been told is 0.

	// (g) The deadlock victim is a write sent ahead: the requests behind it
	// in the burst are answered "outside a transaction" — none of them runs —
	// every answer is consumed, and RunTx retries.
	t.Run("victim at a deferred write", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x", "y", "z"}, LockTimeout: 30 * time.Second})
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
			// Nothing here waits for an answer: the whole body goes with the
			// COMMIT, and on attempt 1 its write of y parks behind older.
			done <- victim.RunTx(3, func(tx *client.Tx) error {
				attempts++
				if err := writeX(tx); err != nil {
					return err
				}
				if _, err := tx.Access("y", spec.OpWrite, spec.Int(2)); err != nil {
					return err
				}
				if _, err := tx.Child(); err != nil {
					return err
				}
				if _, err := tx.Access("z", spec.OpWrite, spec.Int(3)); err != nil {
					return err
				}
				_, err := tx.Commit()
				return err
			})
		}()
		waitFor(t, "the younger transaction to park on y", func() bool { return s.Metrics().BlockedPolls.Load() >= 1 })
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
		if attempts != 2 || m.Retries.Load() != 1 || m.DeadlockAborts.Load() != 1 || m.LockTimeouts.Load() != 0 {
			t.Fatalf("%d attempts, %d retries, %d deadlock aborts, %d lock timeouts; want 2, 1, 1, 0",
				attempts, m.Retries.Load(), m.DeadlockAborts.Load(), m.LockTimeouts.Load())
		}
		// Granted: older's two, attempt 1's x, attempt 2's three. The CHILD,
		// the write of z and the COMMITs behind the victim ran nowhere.
		if got := m.Accesses.Load(); got != 6 {
			t.Fatalf("%d accesses granted, want 6", got)
		}
		if err := victim.Ping(); err != nil { // answers and requests still in step
			t.Fatal(err)
		}
		if err := s.AuditObjects(); err != nil {
			t.Fatal(err)
		}
		shutdownAndVerify(t, s)
	})

	// (h) A write sent ahead names an object the server refuses or an op the
	// object's type lacks. The body's next request that waits reports the
	// refusal, once; RunTx unwinds the open subtransaction and the top level,
	// and the session is idle. When the refused write rides with the
	// top-level COMMIT instead, the server applies the COMMIT all the same,
	// and RunTx says so.
	t.Run("deferred write refused", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		c := dialT(t, s)
		defer c.Close()
		for _, bad := range []struct {
			obj    string
			op     spec.OpKind
			reason string
		}{
			{"x", spec.OpEnq, `object "x" (register) does not support op enq`},
			{"", spec.OpWrite, "empty object label"},
		} {
			aborts := s.Metrics().ClientAborts.Load()
			bodies := 0
			err := c.RunTx(3, func(tx *client.Tx) error {
				bodies++
				if v, err := tx.Access(bad.obj, bad.op, spec.Int(1)); err != nil || v != spec.OK {
					return fmt.Errorf("a write sent ahead returned %v, %v", v, err)
				}
				if _, err := tx.Child(); err != nil {
					return err
				}
				_, err := tx.Access("x", spec.OpRead, spec.Nil)
				return err
			})
			if err == nil || strings.Count(err.Error(), bad.reason) != 1 {
				t.Fatalf("RunTx = %v, want the refusal %q once", err, bad.reason)
			}
			if errors.Is(err, client.ErrTxAborted) || errors.Is(err, client.ErrCommittedAnyway) || bodies != 1 {
				t.Fatalf("refused write: %d bodies, %v", bodies, err)
			}
			if got := s.Metrics().ClientAborts.Load() - aborts; got != 2 {
				t.Fatalf("%d ABORTs unwound the child and the top, want 2", got)
			}
			if v, err := c.Verdict(); err != nil || !v.Acyclic {
				t.Fatalf("verdict after unwinding: %+v, %v", v, err)
			}
			if err := s.AuditObjects(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunTx(1, func(tx *client.Tx) error {
			if err := writeX(tx); err != nil {
				return err
			}
			_, err := tx.Access("x", spec.OpEnq, spec.Int(2))
			return err
		}); !errors.Is(err, client.ErrCommittedAnyway) || !strings.Contains(err.Error(), "does not support op enq") {
			t.Fatalf("refused write riding with the COMMIT: %v", err)
		}
		var v spec.Value
		if err := c.RunTx(1, func(tx *client.Tx) (err error) {
			v, err = tx.Access("x", spec.OpRead, spec.Nil)
			return err
		}); err != nil || v != spec.Int(1) {
			t.Fatalf("the write that rode with the refused one: read %v, %v; want it committed", v, err)
		}
		shutdownAndVerify(t, s)
	})

	// (i) A write inside a snapshot read-only transaction: mvto refuses it
	// from the snapshot path, and the refusal comes back like any other.
	t.Run("deferred write in a snapshot read", func(t *testing.T) {
		s := startServer(t, server.Options{Backend: "mvto", Objects: []string{"x"}})
		c := dialT(t, s)
		defer c.Close()
		bodies := 0
		err := c.RunReadTx(3, func(tx *client.Tx) error {
			bodies++
			if _, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil {
				return err
			}
			if err := writeX(tx); err != nil {
				return fmt.Errorf("a write sent ahead failed at once: %w", err)
			}
			_, err := tx.Access("x", spec.OpRead, spec.Nil)
			return err
		})
		if err == nil || strings.Count(err.Error(), "read-only transaction: op write not allowed") != 1 || bodies != 1 {
			t.Fatalf("RunReadTx = %v after %d bodies, want the snapshot path's refusal once", err, bodies)
		}
		if v, err := c.Verdict(); err != nil || !v.Acyclic {
			t.Fatalf("verdict: %+v, %v", v, err)
		}
		if err := c.RunTx(1, writeX); err != nil { // the session is idle
			t.Fatal(err)
		}
		if err := s.AuditObjects(); err != nil {
			t.Fatal(err)
		}
		shutdownAndVerify(t, s)
	})

	// (j) A subtransaction's COMMIT sent ahead is refused (the WAL failed
	// under it): the next read that waits reports it; the server has already popped the
	// child, so one ABORT — not two — unwinds the top level.
	t.Run("deferred sub-commit refused", func(t *testing.T) {
		disk := &failingDisk{MemDisk: server.NewMemDisk()}
		s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x", "y"}})
		defer s.Kill()
		c, other := dialT(t, s), dialT(t, s)
		defer c.Close()
		defer other.Close()
		aborts := s.Metrics().ClientAborts.Load()
		err := c.RunTx(1, func(tx *client.Tx) error {
			if _, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil { // BEGIN is in
				return err
			}
			disk.fail.Store(true)
			if err := other.RunTx(1, func(tx *client.Tx) error {
				_, err := tx.Access("y", spec.OpWrite, spec.Int(1))
				return err
			}); err == nil || !strings.Contains(err.Error(), "not durable") {
				return fmt.Errorf("the commit that should have failed the WAL: %v", err)
			}
			if _, err := tx.Child(); err != nil {
				return err
			}
			if err := writeX(tx); err != nil {
				return err
			}
			if seq, err := tx.Commit(); err != nil || seq != 0 {
				return fmt.Errorf("a sub-commit sent ahead returned %d, %v", seq, err)
			}
			// The attempt holds x's answer, so Tx.Access would send this read
			// ahead too: the synchronous read waits.
			_, err := c.Access("x", spec.OpRead, spec.Nil)
			return err
		})
		if err == nil || strings.Count(err.Error(), "commit not durable") != 1 || strings.Contains(err.Error(), "ABORT") {
			t.Fatalf("RunTx = %v, want the sub-commit's refusal once and a clean unwinding", err)
		}
		if got := s.Metrics().ClientAborts.Load() - aborts; got != 1 {
			t.Fatalf("%d ABORTs unwound the transaction, want 1", got)
		}
		if err := s.AuditObjects(); err != nil {
			t.Fatal(err)
		}
	})

	// (k) A subtransaction's COMMIT returns seq 0 inside RunTx — never a real
	// log index — while the server logs it, and the explicit API's COMMITs,
	// at their real ones.
	t.Run("sub-commit seq", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		c := dialT(t, s)
		defer c.Close()
		subSeq := uint64(1)
		if err := c.RunTx(1, func(tx *client.Tx) (err error) {
			if _, err = tx.Child(); err != nil {
				return err
			}
			if err = writeX(tx); err != nil {
				return err
			}
			subSeq, err = tx.Commit()
			return err
		}); err != nil || subSeq != 0 {
			t.Fatalf("sub-commit in RunTx: seq %d, %v; want 0", subSeq, err)
		}
		if _, err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Child(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Access("x", spec.OpWrite, spec.Int(2)); err != nil {
			t.Fatal(err)
		}
		sub, err := c.Commit()
		if err != nil {
			t.Fatal(err)
		}
		top, err := c.Commit()
		if err != nil || sub == 0 || top <= sub {
			t.Fatalf("explicit COMMITs at %d then %d, %v; want real, increasing log indices", sub, top, err)
		}
		log, tr := s.Log(), s.Tree()
		commits := 0
		for _, e := range log {
			if e.Kind == event.Commit && !tr.IsAccess(e.Tx) {
				commits++
			}
		}
		if commits != 4 { // both transactions' child and top level
			t.Fatalf("%d transaction COMMITs logged, want 4", commits)
		}
		if e, f := log[sub], log[top]; e.Kind != event.Commit || f.Kind != event.Commit || tr.Parent(f.Tx) != tname.Root || tr.Parent(e.Tx) != f.Tx {
			t.Fatalf("explicit COMMITs answered %d and %d, but the log has %v and %v there", sub, top, e, f)
		}
		shutdownAndVerify(t, s)
	})

	// (l) A 12 KiB write does not fit an empty write buffer, so it is never
	// sent ahead — over a net.Pipe both ends would block writing — whether
	// it is the body's first request, behind a write that was, or its last.
	t.Run("large write over a pipe", func(t *testing.T) {
		s := server.New(server.Options{Objects: []string{"x"}})
		c, _, _ := countedSession(t, s, true)
		big := spec.Str(strings.Repeat("v", 12<<10))
		done := make(chan error, 1)
		go func() {
			done <- c.RunTx(1, func(tx *client.Tx) error {
				if v, err := tx.Access("x", spec.OpWrite, big); err != nil || v != spec.OK {
					return fmt.Errorf("first: %v, %v", v, err)
				}
				if err := writeX(tx); err != nil {
					return err
				}
				if v, err := tx.Access("x", spec.OpWrite, big); err != nil || v != spec.OK {
					return fmt.Errorf("behind a deferred write: %v, %v", v, err)
				}
				_, err := tx.Access("x", spec.OpWrite, big)
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a 12 KiB write over net.Pipe never completed: it was sent ahead of its answer")
		}
		c.Close()
		shutdownAndVerify(t, s)
	})
}

// doneHooks is the real-time hook set counting the sessions that have
// ended.
type doneHooks struct {
	recordingHooks
	done atomic.Int64
}

func (h *doneHooks) SessionDone(int64) { h.done.Add(1) }

// TestDeferredSnapshotCommit follows the COMMIT a snapshot RunReadTx leaves
// owed through what the connection does next: the next call sends it and
// reads its answer before its own, and a connection closed or drained with
// it owed leaves no trace in the log or the abort counters.
func TestDeferredSnapshotCommit(t *testing.T) {
	readX := func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpRead, spec.Nil)
		return err
	}
	// owe runs one snapshot transaction on a connection that owes nothing,
	// and checks that its COMMIT has not reached the server: the server
	// handles its BEGIN and, unless warm, the connection's view already
	// holding x, its read.
	owe := func(t *testing.T, s *server.Server, c *client.Conn, warm bool) {
		t.Helper()
		req := s.Metrics().Requests.Load()
		if err := c.RunReadTx(1, readX); err != nil {
			t.Fatal(err)
		}
		want := map[bool]int64{false: 2, true: 1}[warm]
		if got := s.Metrics().Requests.Load() - req; got != want {
			t.Fatalf("the server handled %d requests of the transaction, want %d: BEGIN, and the read unless warm (%v)", got, want, warm)
		}
	}
	// untouched fails unless s logged nothing since the log was before
	// events long and counted no abort of any kind.
	untouched := func(t *testing.T, s *server.Server, before int) {
		t.Helper()
		m := s.Metrics()
		if got := s.LogLen(); got != before {
			t.Fatalf("%d events logged for a snapshot transaction", got-before)
		}
		if m.ClientAborts.Load() != 0 || m.DrainAborts.Load() != 0 {
			t.Fatalf("%d client and %d drain aborts counted", m.ClientAborts.Load(), m.DrainAborts.Load())
		}
	}
	mvto := server.Options{Backend: "mvto", Objects: []string{"x"}}

	t.Run("close", func(t *testing.T) {
		h := &doneHooks{}
		opts := mvto
		opts.Hooks = h
		s := startServer(t, opts)
		c := dialT(t, s)
		owe(t, s, c, false)
		before := s.LogLen()
		c.Close()
		waitFor(t, "the session to end", func() bool { return h.done.Load() == 1 })
		untouched(t, s, before)
		shutdownAndVerify(t, s)
	})

	t.Run("pool", func(t *testing.T) {
		s := startServer(t, mvto)
		pool := client.NewPool(s.Addr().String())
		defer pool.Close()
		c, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		owe(t, s, c, false)
		pool.Put(c)
		req := s.Metrics().Requests.Load()
		got, err := pool.Get()
		if err != nil || got != c {
			t.Fatalf("Get = %p, %v; want the pooled connection %p back", got, err, c)
		}
		if n := s.Metrics().Requests.Load() - req; n != 2 {
			t.Fatalf("the health check sent %d requests, want the owed COMMIT and the PING", n)
		}
		owe(t, s, c, true) // nothing was left owed
		pool.Put(c)
		pool.Close()
		shutdownAndVerify(t, s)
	})

	t.Run("verdict", func(t *testing.T) {
		s := startServer(t, mvto)
		c := dialT(t, s)
		defer c.Close()
		if err := c.RunTx(1, func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpWrite, spec.Int(4))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		owe(t, s, c, false)
		req := s.Metrics().Requests.Load()
		v, err := c.Verdict()
		if err != nil || !v.Acyclic || v.Commits == 0 || v.Events != uint64(s.LogLen()) {
			t.Fatalf("Verdict = %+v, %v; want the live verdict, not the COMMIT's answer", v, err)
		}
		if n := s.Metrics().Requests.Load() - req; n != 2 {
			t.Fatalf("Verdict sent %d requests, want the owed COMMIT and the VERDICT", n)
		}
		shutdownAndVerify(t, s)
	})

	// A draining server closes a snapshot reader's connection at once, so a
	// refused BEGIN behind an owed COMMIT comes from a failed WAL.
	t.Run("begin refused behind it", func(t *testing.T) {
		disk := &failingDisk{MemDisk: server.NewMemDisk()}
		opts := mvto
		opts.WAL = disk
		s, _ := recoverAndStart(t, opts)
		defer s.Kill()
		c, other := dialT(t, s), dialT(t, s)
		defer c.Close()
		defer other.Close()
		owe(t, s, c, false)
		disk.fail.Store(true)
		if err := other.RunTx(1, func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
			return err
		}); err == nil || !strings.Contains(err.Error(), "not durable") {
			t.Fatalf("the commit that should have failed the WAL: %v", err)
		}
		bodies := 0
		err := c.RunTx(3, func(tx *client.Tx) error { bodies++; return readX(tx) })
		if err == nil || !strings.HasPrefix(err.Error(), "client: server rejected BEGIN: wal unavailable") ||
			strings.Count(err.Error(), "wal unavailable") != 1 || strings.Contains(err.Error(), "COMMIT") {
			t.Fatalf("RunTx = %v, want the BEGIN's refusal, once and bare", err)
		}
		if errors.Is(err, client.ErrTxAborted) || bodies != 1 {
			t.Fatalf("refused BEGIN was retried: %d bodies, %v", bodies, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("connection unusable after a refused BEGIN: %v", err)
		}
	})

	t.Run("drained", func(t *testing.T) {
		h := &recordingHooks{}
		opts := mvto
		opts.Hooks = h
		s := startServer(t, opts)
		c := dialT(t, s)
		defer c.Close()
		owe(t, s, c, false)
		before := s.LogLen()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil || h.drains.Load() != 0 {
			t.Fatalf("Shutdown = %v after %d polls, want nil and none", err, h.drains.Load())
		}
		untouched(t, s, before)
		if f := s.Final(); !f.Batch.OK || !f.Match {
			t.Fatal(f.Summary)
		}
		err := c.RunTx(1, readX)
		if err == nil || errors.Is(err, client.ErrTxAborted) || !c.Broken() {
			t.Fatalf("RunTx on a drained connection = %v (broken %v), want a transport failure", err, c.Broken())
		}
	})
}

// TestPipelinedBackendsOnlineEqualsBatch: the online certificate equals the
// batch one over logs whose CHILD names came from the clients. The sim and
// the differential harness cover the label-less protocol; this is their cell
// for bursts — RunTx traffic, nesting up to depth 3, four clients on two hot
// objects and two cool ones — on every backend.
//
// It also holds the client's view to the server's log: every value a body
// was handed — a read's answer, or the OK a write returned before its answer
// arrived — equals the value of the matching REPORT_COMMIT in the log, for
// every committed top-level transaction, and the log has no committed
// transaction, and no access in one, that a client did not see.
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
			// views[i] is client i's committed transactions in order, each the
			// accesses its last attempt made with the values it was handed.
			views := make([][]string, clients)
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
					var seen []string
					for n := 0; n < txPer; n++ {
						if err := c.RunTx(20, func(tx *client.Tx) error {
							seen = seen[:0]
							return nestedBody(tx, rng, objects, 0, &seen)
						}); err != nil {
							errs <- fmt.Errorf("client %d tx %d: %w", i, n, err)
							return
						}
						views[i] = append(views[i], strings.Join(seen, "; "))
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
			checkClientViews(t, s, views)
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
// queue behind one another and behind BEGIN. Each access is appended to
// seen with the value the body was handed, as accessView renders it.
func nestedBody(tx *client.Tx, rng *rand.Rand, objects []string, depth int, seen *[]string) error {
	for step, steps := 0, 1+rng.Intn(3); step < steps; step++ {
		if depth < 3 && rng.Intn(2) == 0 {
			if _, err := tx.Child(); err != nil {
				return err
			}
			if err := nestedBody(tx, rng, objects, depth+1, seen); err != nil {
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
		op := spec.Op{Kind: spec.OpRead}
		if rng.Intn(2) != 0 {
			op = spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(rng.Intn(100)))}
		}
		v, err := tx.Access(obj, op.Kind, op.Arg)
		if err != nil {
			return err
		}
		*seen = append(*seen, accessView(obj, op, v))
	}
	return nil
}

// accessView renders one access and the value it returned.
func accessView(obj string, op spec.Op, v spec.Value) string {
	return fmt.Sprintf("%s.%s=%s", obj, op, v)
}

// checkClientViews matches what the clients saw against s's log. A session
// is sequential, so the REPORT_COMMITs of one top-level transaction's
// accesses are in the log in the order its body made them, and its
// committed top-level transactions are in the order its client ran them. So
// each client's list of committed transactions must equal, access for
// access and value for value, the list the log holds for one session — and
// the two sets of lists must be the same.
func checkClientViews(t *testing.T, s *server.Server, views [][]string) {
	t.Helper()
	log, tr := s.Log(), s.Tree()
	top := func(x tname.TxID) tname.TxID {
		for tr.Parent(x) != tname.Root {
			x = tr.Parent(x)
		}
		return x
	}
	accesses := map[tname.TxID][]string{} // per top-level, in log order
	var sessions []string                 // "s<id>", in order of first commit
	committed := map[string][]string{}    // per session, in commit order
	for _, e := range log {
		switch {
		case e.Kind == event.ReportCommit && tr.IsAccess(e.Tx):
			x := top(e.Tx)
			accesses[x] = append(accesses[x], accessView(tr.ObjectLabel(tr.AccessObject(e.Tx)), tr.AccessOp(e.Tx), e.Val))
		case e.Kind == event.Commit && tr.Parent(e.Tx) == tname.Root:
			sess, _, _ := strings.Cut(tr.Label(e.Tx), ".")
			if committed[sess] == nil {
				sessions = append(sessions, sess)
			}
			committed[sess] = append(committed[sess], strings.Join(accesses[e.Tx], "; "))
		}
	}
	var fromLog, fromClients []string
	for _, sess := range sessions {
		fromLog = append(fromLog, strings.Join(committed[sess], "\n"))
	}
	for _, v := range views {
		fromClients = append(fromClients, strings.Join(v, "\n"))
	}
	slices.Sort(fromLog)
	slices.Sort(fromClients)
	if !slices.Equal(fromLog, fromClients) {
		for i, v := range fromClients {
			if !slices.Contains(fromLog, v) {
				t.Fatalf("client view %d matches no session's committed transactions in the log:\n%s", i, v)
			}
		}
		t.Fatalf("%d sessions committed transactions in the log, %d clients saw theirs", len(fromLog), len(fromClients))
	}
}
