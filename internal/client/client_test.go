package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

func startServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	s, err := server.Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// TestRunTxRetryExhaustion: when every attempt is aborted by the server,
// RunTx must give up after maxAttempts and return an error that both
// names the attempt count and wraps ErrTxAborted (the last cause), so
// callers can distinguish retry exhaustion from application errors.
func TestRunTxRetryExhaustion(t *testing.T) {
	s := startServer(t, server.Options{
		Objects:     []string{"x"},
		LockTimeout: 30 * time.Millisecond,
	})

	// Holder parks a write lock on x and never completes.
	holder, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attempts := 0
	err = c.RunTx(2, func(tx *client.Tx) error {
		attempts++
		_, err := tx.Access("x", spec.OpWrite, spec.Int(2))
		return err
	})
	if err == nil {
		t.Fatal("RunTx succeeded against a held write lock")
	}
	if !errors.Is(err, client.ErrTxAborted) {
		t.Fatalf("exhaustion error does not wrap ErrTxAborted: %v", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("exhaustion error does not name the attempt count: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("body ran %d times, want 2", attempts)
	}
	// The lock-timeout reason from the server's last abort survives.
	if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("last abort cause lost: %v", err)
	}
}

// TestPoolDiscardsDeadConnections: a connection that sat in the free list
// while its server went away must not be handed out again — Get
// health-checks it, discards it, and dials the replacement server.
func TestPoolDiscardsDeadConnections(t *testing.T) {
	s1, err := server.Listen("127.0.0.1:0", server.Options{Objects: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr().String()

	pool := client.NewPool(addr)
	defer pool.Close()
	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	pool.Put(c)

	// The server goes down (closing the pooled connection) and a
	// replacement comes up on the same address.
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := server.New(server.Options{Objects: []string{"x"}})
	if err := s2.Start(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	t.Cleanup(func() { s2.Shutdown(context.Background()) })

	c2, err := pool.Get()
	if err != nil {
		t.Fatalf("Get after server drop: %v", err)
	}
	defer pool.Put(c2)
	if c2 == c {
		t.Fatal("pool handed back the connection the dead server closed")
	}
	if err := c2.RunTx(3, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(7))
		return err
	}); err != nil {
		t.Fatalf("transaction on replacement connection: %v", err)
	}
}

// TestPoolDropsBrokenConnOnPut: a connection that saw a transport error
// is closed by Put instead of rejoining the free list.
func TestPoolDropsBrokenConnOnPut(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	pool := client.NewPool(s.Addr().String())
	defer pool.Close()

	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	// Break the transport under the client: the next round trip fails and
	// marks the connection.
	c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a closed connection succeeded")
	}
	if !c.Broken() {
		t.Fatal("transport error did not mark the connection broken")
	}
	pool.Put(c)
	c2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c2)
	if c2 == c {
		t.Fatal("pool handed out a broken connection")
	}
}

// scriptedPeer plays the server's end of a net.Pipe: it answers each request
// frame it reads with answer(request), flushing like the server does, until
// answer returns nil, and then closes the connection. It reports the
// commands it saw.
func scriptedPeer(t *testing.T, answer func(q wire.Request) *wire.Response) (*client.Conn, <-chan []wire.Cmd) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	seen := make(chan []wire.Cmd, 1)
	go func() {
		defer srvEnd.Close()
		r, w := bufio.NewReader(srvEnd), bufio.NewWriter(srvEnd)
		var cmds []wire.Cmd
		defer func() { seen <- cmds }()
		for {
			payload, err := wire.ReadFrame(r, nil)
			if err != nil {
				return
			}
			q, err := wire.ParseRequest(payload)
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			cmds = append(cmds, q.Cmd)
			resp := answer(q)
			if resp == nil {
				w.Flush() // what was answered before arrives; then the line goes dead
				return
			}
			if err := wire.PutFrame(w, wire.AppendResponse(nil, q.Cmd, *resp)); err != nil {
				return
			}
			if !wire.FrameBuffered(r) {
				if err := w.Flush(); err != nil {
					return
				}
			}
		}
	}()
	c := client.NewConn(cliEnd)
	t.Cleanup(func() { c.Close() })
	return c, seen
}

// TestDeferredChildNameIsChecked: Tx.Child hands the body a name before the
// server has confirmed it, so the answer, when it is read, must carry that
// name. A peer that names the child otherwise fails the request the CHILD
// travelled with; the answers behind it are still consumed, and RunTx
// unwinds the subtransaction it counted.
func TestDeferredChildNameIsChecked(t *testing.T) {
	c, seen := scriptedPeer(t, func(q wire.Request) *wire.Response {
		switch q.Cmd {
		case wire.CmdBegin:
			return &wire.Response{Name: "s1.1"}
		case wire.CmdChild:
			return &wire.Response{Name: "c1"} // not the k<n> it was asked for
		case wire.CmdAccess:
			return &wire.Response{Value: spec.OK}
		default:
			return &wire.Response{}
		}
	})
	var promised string
	err := c.RunTx(3, func(tx *client.Tx) (err error) {
		if promised, err = tx.Child(); err != nil {
			return err
		}
		_, err = tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), `"c1"`) || !strings.Contains(err.Error(), promised) {
		t.Fatalf("RunTx = %v, want a complaint that %q came back as \"c1\"", err, promised)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("stream out of step after a failed burst: %v", err)
	}
	c.Close()
	want := []wire.Cmd{wire.CmdBegin, wire.CmdChild, wire.CmdAccess, wire.CmdAbort, wire.CmdAbort, wire.CmdPing}
	if got := <-seen; !slices.Equal(got, want) {
		t.Fatalf("peer saw %v, want %v", got, want)
	}
}

// TestDeferredWriteAnswerIsChecked: Tx.Access hands the body a write's OK
// before the server has answered, so the answer, when it is read, must be
// that OK. A peer whose type answers otherwise fails RunTx, naming both
// values: through the body's next request that waits — a synchronous read on
// the same connection, since a read of the written object the attempt
// answers itself — after which RunTx unwinds the transaction, or through the
// COMMIT the write rode with, which the peer applied — and RunTx says so. A
// read the attempt answers from its own write is promised the written value
// in the same way, and checked in the same way.
func TestDeferredWriteAnswerIsChecked(t *testing.T) {
	for _, tc := range []struct {
		name string
		// body runs in the transaction on c and returns what the access it
		// checks was promised.
		body func(c *client.Conn, tx *client.Tx) (spec.Value, error)
		// promised is that access's promise; complaint what the error says.
		promised  spec.Value
		complaint string
		// wrote is what the peer answers a write with; it answers a read
		// with 7.
		wrote     spec.Value
		committed bool
		want      []wire.Cmd
	}{
		{
			name: "read behind the write",
			body: func(c *client.Conn, tx *client.Tx) (spec.Value, error) {
				promised, err := tx.Access("x", spec.OpWrite, spec.Int(1))
				if err != nil {
					return promised, err
				}
				_, err = c.Access("x", spec.OpRead, spec.Nil)
				return promised, err
			},
			promised: spec.OK, complaint: "with 7, not the OK", wrote: spec.Int(7),
			want: []wire.Cmd{wire.CmdBegin, wire.CmdAccess, wire.CmdAccess, wire.CmdAbort, wire.CmdPing},
		},
		{
			name: "write rides with the commit",
			body: func(_ *client.Conn, tx *client.Tx) (spec.Value, error) {
				return tx.Access("x", spec.OpWrite, spec.Int(1))
			},
			promised: spec.OK, complaint: "with 7, not the OK", wrote: spec.Int(7), committed: true,
			want: []wire.Cmd{wire.CmdBegin, wire.CmdAccess, wire.CmdCommit, wire.CmdPing},
		},
		{
			name: "promised read rides with the commit",
			body: func(_ *client.Conn, tx *client.Tx) (spec.Value, error) {
				if _, err := tx.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
					return spec.Nil, err
				}
				return tx.Access("x", spec.OpRead, spec.Nil)
			},
			promised: spec.Int(1), complaint: "with 7, not the 1", wrote: spec.OK, committed: true,
			want: []wire.Cmd{wire.CmdBegin, wire.CmdAccess, wire.CmdAccess, wire.CmdCommit, wire.CmdPing},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, seen := scriptedPeer(t, func(q wire.Request) *wire.Response {
				switch q.Cmd {
				case wire.CmdBegin:
					return &wire.Response{Name: "s1.1"}
				case wire.CmdAccess:
					if q.Op == spec.OpWrite {
						return &wire.Response{Value: tc.wrote}
					}
					return &wire.Response{Value: spec.Int(7)} // a register that reads 7 whatever was written
				case wire.CmdCommit:
					return &wire.Response{Seq: 9}
				default:
					return &wire.Response{}
				}
			})
			var promised spec.Value
			err := c.RunTx(3, func(tx *client.Tx) (err error) {
				promised, err = tc.body(c, tx)
				return err
			})
			if promised != tc.promised {
				t.Fatalf("the access returned %v before its answer, want %v", promised, tc.promised)
			}
			if err == nil || !strings.Contains(err.Error(), tc.complaint) {
				t.Fatalf("RunTx = %v, want a complaint %q", err, tc.complaint)
			}
			if errors.Is(err, client.ErrTxAborted) || errors.Is(err, client.ErrCommittedAnyway) != tc.committed {
				t.Fatalf("RunTx = %v; committed anyway should be %v", err, tc.committed)
			}
			if tc.committed && !strings.Contains(err.Error(), "log index 9") {
				t.Fatalf("RunTx = %v, want the COMMIT's log index", err)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("stream out of step after a broken promise: %v", err)
			}
			c.Close()
			if got := <-seen; !slices.Equal(got, tc.want) {
				t.Fatalf("peer saw %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDeferredAnswersLostWithTheTransport: the connection dies between the
// answers of one burst. The failure is the answer to everything still owed,
// the connection is marked broken for the pool, and nothing later blocks on
// answers that will never come.
func TestDeferredAnswersLostWithTheTransport(t *testing.T) {
	c, seen := scriptedPeer(t, func(q wire.Request) *wire.Response {
		if q.Cmd == wire.CmdBegin {
			return &wire.Response{Name: "s1.1"}
		}
		return nil // hang up on the CHILD, with the ACCESS unread
	})
	bodies := 0
	err := c.RunTx(3, func(tx *client.Tx) error {
		bodies++
		if _, err := tx.Child(); err != nil {
			return err
		}
		_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	})
	if err == nil || errors.Is(err, client.ErrTxAborted) || bodies != 1 {
		t.Fatalf("RunTx = %v after %d bodies, want one body and a transport error", err, bodies)
	}
	if !c.Broken() {
		t.Fatal("transport failure did not mark the connection broken")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a dead connection succeeded")
	}
	if got := <-seen; !slices.Equal(got, []wire.Cmd{wire.CmdBegin, wire.CmdChild}) {
		t.Fatalf("peer saw %v", got)
	}
}

// snapshotPeer is a scriptedPeer that answers like a snapshot backend — it
// flags every BEGIN "snapshot" when flag(q) holds, refuses writes and
// answers everything else OK — and keeps the list of commands it has
// answered so far.
func snapshotPeer(t *testing.T, flag func(q wire.Request) bool) (c *client.Conn, answered func() []wire.Cmd) {
	var (
		mu   sync.Mutex
		cmds []wire.Cmd
	)
	c, _ = scriptedPeer(t, func(q wire.Request) *wire.Response {
		mu.Lock()
		cmds = append(cmds, q.Cmd)
		mu.Unlock()
		switch {
		case q.Cmd == wire.CmdBegin:
			return &wire.Response{Name: "s1.r1", Snapshot: flag(q)}
		case q.Cmd == wire.CmdChild:
			return &wire.Response{Name: "k" + strconv.FormatUint(q.N, 10)}
		case q.Cmd == wire.CmdAccess && q.Op == spec.OpWrite:
			return &wire.Response{Status: wire.StatusError, Reason: "read-only transaction: op write not allowed"}
		case q.Cmd == wire.CmdAccess:
			return &wire.Response{Value: spec.Int(5)}
		default:
			return &wire.Response{}
		}
	})
	return c, func() []wire.Cmd {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(cmds)
	}
}

// TestSnapshotCommitRidesAhead: RunReadTx leaves the top-level COMMIT in
// the write buffer only when the BEGIN it asked to be read-only was
// answered "snapshot" and nothing owed could still be refused; the next
// request carries it, and its answer is read first. In every other case the
// COMMIT is a round trip, as RunTx's always is.
func TestSnapshotCommitRidesAhead(t *testing.T) {
	read := func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpRead, spec.Nil)
		return err
	}
	always := func(wire.Request) bool { return true }
	B, A, K, C, P := wire.CmdBegin, wire.CmdAccess, wire.CmdChild, wire.CmdCommit, wire.CmdPing
	for _, tc := range []struct {
		name     string
		ro       bool
		flag     func(wire.Request) bool
		body     func(tx *client.Tx) error
		atReturn []wire.Cmd // what the peer has answered when RunTx returns
		atPing   []wire.Cmd // … and once a PING has been answered
	}{
		{"snapshot read", true, always, read, []wire.Cmd{B, A}, []wire.Cmd{B, A, C, P}},
		{"snapshot read, then a whole subtransaction", true, always, func(tx *client.Tx) error {
			if err := read(tx); err != nil {
				return err
			}
			if _, err := tx.Child(); err != nil {
				return err
			}
			_, err := tx.Commit()
			return err
		}, []wire.Cmd{B, A}, []wire.Cmd{B, A, K, C, C, P}},
		{"no read: BEGIN's answer unread", true, always, func(*client.Tx) error { return nil }, []wire.Cmd{B, C}, []wire.Cmd{B, C, P}},
		{"not flagged: degraded", true, func(wire.Request) bool { return false }, read, []wire.Cmd{B, A, C}, []wire.Cmd{B, A, C, P}},
		{"flagged without being asked: RunTx", false, always, read, []wire.Cmd{B, A, C}, []wire.Cmd{B, A, C, P}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, answered := snapshotPeer(t, tc.flag)
			run := c.RunTx
			if tc.ro {
				run = c.RunReadTx
			}
			if err := run(1, tc.body); err != nil {
				t.Fatal(err)
			}
			if got := answered(); !slices.Equal(got, tc.atReturn) {
				t.Fatalf("peer had answered %v when RunTx returned, want %v", got, tc.atReturn)
			}
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if got := answered(); !slices.Equal(got, tc.atPing) {
				t.Fatalf("peer had answered %v after the PING, want %v", got, tc.atPing)
			}
		})
	}

	// A write sent ahead in a snapshot transaction is refused there, so a
	// COMMIT behind it is not left owed: RunReadTx reports the refusal.
	c, answered := snapshotPeer(t, always)
	err := c.RunReadTx(1, func(tx *client.Tx) error {
		if err := read(tx); err != nil {
			return err
		}
		_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "op write not allowed") {
		t.Fatalf("RunReadTx = %v, want the refused write", err)
	}
	if got, want := answered(), []wire.Cmd{B, A, A, C}; !slices.Equal(got, want) {
		t.Fatalf("peer answered %v, want %v", got, want)
	}
}

// TestOwedSnapshotCommitLostWithTheTransport: the connection dies with a
// snapshot COMMIT owed. The next call reports the transport failure in
// place of its own outcome, and the connection is marked broken.
func TestOwedSnapshotCommitLostWithTheTransport(t *testing.T) {
	c, seen := scriptedPeer(t, func(q wire.Request) *wire.Response {
		switch q.Cmd {
		case wire.CmdBegin:
			return &wire.Response{Name: "s1.r1", Snapshot: true}
		case wire.CmdAccess:
			return &wire.Response{Value: spec.Int(5)}
		default:
			return nil // hang up on the COMMIT
		}
	})
	if err := c.RunReadTx(1, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpRead, spec.Nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verdict(); err == nil || !strings.Contains(err.Error(), "COMMIT") || !c.Broken() {
		t.Fatalf("Verdict = %v (broken %v), want the owed COMMIT's transport failure", err, c.Broken())
	}
	if got, want := <-seen, []wire.Cmd{wire.CmdBegin, wire.CmdAccess, wire.CmdCommit}; !slices.Equal(got, want) {
		t.Fatalf("peer saw %v, want %v", got, want)
	}
}
