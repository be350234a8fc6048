package server_test

import (
	"fmt"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// read is one read a transaction body makes, and the answer it must get.
type read struct {
	obj  string
	op   spec.OpKind
	arg  spec.Value
	want spec.Value
}

// reads returns a body that makes rs in order and fails on a wrong answer.
func reads(rs ...read) func(tx *client.Tx) error {
	return func(tx *client.Tx) error {
		for _, r := range rs {
			v, err := tx.Access(r.obj, r.op, r.arg)
			if err != nil {
				return err
			}
			if v != r.want {
				return fmt.Errorf("%s %s(%s) = %s, want %s", r.obj, r.op, r.arg, v, r.want)
			}
		}
		return nil
	}
}

// writeTx commits v to obj on c.
func writeTx(t *testing.T, c *client.Conn, obj string, v int64) {
	t.Helper()
	if err := c.RunTx(1, func(tx *client.Tx) error {
		_, err := tx.Access(obj, spec.OpWrite, spec.Int(v))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsAskOnce: a snapshot transaction asks the server for each
// (object, op, argument) at most once, and its client answers a repeat from
// the connection's view, sending nothing; any other transaction sends every
// read (TestHeldAnswers). The view also answers the reads the connection's
// earlier snapshot transactions made, at the new cut its BEGIN's answer
// brings it to, so the body's reads of those keys send nothing either;
// RunTx and a backend without snapshots keep no view, and the synchronous
// Conn.Access always asks. Each row runs its transactions on one counted
// connection, with a second one for the writes between them, and counts the
// client's writes and the snapshot reads the server served, pushed values
// included.
func TestSnapshotReadsAskOnce(t *testing.T) {
	x := func(want int64) read { return read{"x", spec.OpRead, spec.Nil, spec.Int(want)} }
	y := func(want int64) read { return read{"y", spec.OpRead, spec.Nil, spec.Int(want)} }
	member := func(n int64, want bool) read { return read{"s", spec.OpMember, spec.Int(n), spec.Bool(want)} }
	size := read{"s", spec.OpSize, spec.Nil, spec.Int(1)}
	mvto := func() *server.Server {
		return server.New(server.Options{Backend: "mvto", Objects: []string{"x", "y"}})
	}
	var (
		eight []string
		rs    []read
	)
	for i := 0; i < 8; i++ {
		eight = append(eight, fmt.Sprintf("k%d", i))
		rs = append(rs, read{eight[i], spec.OpRead, spec.Nil, spec.Int(0)})
	}
	readEight := reads(rs...)

	for _, tc := range []struct {
		name string
		why  string
		srv  func() *server.Server
		// run runs the row's transactions on c, and any write between
		// them on w.
		run func(t *testing.T, c, w *client.Conn) error
		// writes is what c writes; served is how many snapshot reads the
		// server answers; logged is how many accesses it logs.
		writes, served, logged int64
	}{
		{
			name: "the same read twice",
			why:  "the state at the cut answers a repeat as it answered the first: 1 write, where asking again took 2",
			srv:  mvto,
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunReadTx(1, reads(x(0), x(0)))
			},
			writes: 1, served: 1,
		},
		{
			name: "another op or argument on the same object",
			why:  "member(4) and size are other questions than member(3): each is asked once, and only the repeats are answered by the client",
			srv: func() *server.Server {
				return server.NewWithSnapshots(server.Options{DefaultSpec: spec.IntSet{}, Objects: []string{"s"}})
			},
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := w.RunTx(1, func(tx *client.Tx) error {
					_, err := tx.Access("s", spec.OpInsert, spec.Int(3))
					return err
				}); err != nil {
					return err
				}
				return c.RunReadTx(1, reads(member(3, true), member(4, false), size, member(4, false), size, member(3, true)))
			},
			writes: 3, served: 3, logged: 1,
		},
		{
			name: "the next transaction",
			why:  "a new BEGIN pins a new cut, which holds the commit made since: the second transaction's read of y carries its BEGIN, whose answer pushes x, which the first read, at that cut, so it reads the new value, and its reads of x send nothing: 2 writes, where asking again took 3",
			srv:  mvto,
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0))); err != nil {
					return err
				}
				writeTx(t, w, "x", 7)
				return c.RunReadTx(1, reads(y(0), x(7), x(7)))
			},
			writes: 2, served: 3, logged: 1,
		},
		{
			name: "a warm connection's next transaction",
			why:  "the first transaction pays a write for each of its reads; the second's first read waits for its BEGIN's answer, which pushes nothing, since nothing changed, and the view answers all four reads: 3 writes and 2 reads served, where asking again took 4 of each",
			srv:  mvto,
			run: func(t *testing.T, c, _ *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0), y(0))); err != nil {
					return err
				}
				return c.RunReadTx(1, reads(x(0), y(0), x(0), y(0)))
			},
			writes: 3, served: 2,
		},
		{
			name: "a warm connection's 8 keys and a CHILD, one write",
			why:  "the first transaction pays a write for each of its 8 reads; the second opens a child before its first read, which waits for the burst of the first transaction's COMMIT, the BEGIN and the CHILD, and the view answers all 8 reads: 1 write and no read served",
			srv: func() *server.Server {
				return server.New(server.Options{Backend: "mvto", Objects: eight})
			},
			run: func(t *testing.T, c, _ *client.Conn) error {
				if err := c.RunReadTx(1, readEight); err != nil {
					return err
				}
				return c.RunReadTx(1, func(tx *client.Tx) error {
					if _, err := tx.Child(); err != nil {
						return err
					}
					if err := readEight(tx); err != nil {
						return err
					}
					_, err := tx.Commit()
					return err
				})
			},
			writes: 9, served: 8,
		},
		{
			name: "a hint key the body never reads",
			why:  "the second transaction reads only y, and the x its view holds costs nothing: no read served, no write more, nothing logged, and no lock, so the write of x does not wait; the third transaction's BEGIN answer pushes the new x, and the view answers both its reads at its own cut: 4 writes and 3 reads served",
			srv:  mvto,
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0), y(0))); err != nil {
					return err
				}
				if err := c.RunReadTx(1, reads(y(0))); err != nil {
					return err
				}
				writeTx(t, w, "x", 7)
				return c.RunReadTx(1, reads(x(7), y(0)))
			},
			writes: 4, served: 3, logged: 1,
		},
		{
			name: "a warm connection fetches each op and argument",
			why:  "the view keys a read by object, op and argument: the second transaction asks for size, which carries its BEGIN, and the view answers both member questions: 3 writes and 3 reads served, where a view by object alone asks again",
			srv: func() *server.Server {
				return server.NewWithSnapshots(server.Options{DefaultSpec: spec.IntSet{}, Objects: []string{"s"}})
			},
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := w.RunTx(1, func(tx *client.Tx) error {
					_, err := tx.Access("s", spec.OpInsert, spec.Int(3))
					return err
				}); err != nil {
					return err
				}
				if err := c.RunReadTx(1, reads(member(3, true), member(4, false))); err != nil {
					return err
				}
				return c.RunReadTx(1, reads(size, member(3, true), member(4, false)))
			},
			writes: 3, served: 3, logged: 1,
		},
		{
			name: "a retried attempt",
			why:  "a retry pins a new cut, and its BEGIN's answer pushes x, which the first attempt read, at that cut: its first read, of y, carries the BEGIN, and its read of x sees the commit made since and sends nothing: 3 writes, where asking again took 4",
			srv:  mvto,
			run: func(t *testing.T, c, w *client.Conn) error {
				attempts := 0
				return c.RunReadTx(2, func(tx *client.Tx) error {
					if attempts++; attempts == 2 {
						return reads(y(0), x(7))(tx)
					}
					if err := reads(x(0))(tx); err != nil {
						return err
					}
					writeTx(t, w, "x", 7)
					if err := tx.Abort(); err != nil {
						return err
					}
					return fmt.Errorf("the body ends its first attempt: %w", client.ErrTxAborted)
				})
			},
			writes: 3, served: 3, logged: 1,
		},
		{
			name: "a retried attempt on a warm connection",
			why:  "each attempt's BEGIN answer brings the view to its own cut: the first attempt's read of y is served with its BEGIN and its x = 0 comes from the view; the retry's first read waits for its BEGIN's answer, which pushes the 7 committed since, and the view answers both reads: a write for each attempt's first read and one for the first attempt's COMMIT, and 3 reads served",
			srv:  mvto,
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0))); err != nil {
					return err
				}
				attempts := 0
				return c.RunReadTx(2, func(tx *client.Tx) error {
					if attempts++; attempts == 2 {
						return reads(y(0), x(7))(tx)
					}
					if err := reads(y(0), x(0))(tx); err != nil {
						return err
					}
					writeTx(t, w, "x", 7)
					// The body ends the snapshot with a COMMIT, not an Abort,
					// which would drop what the attempt holds: only the retry
					// itself may.
					if _, err := tx.Commit(); err != nil {
						return err
					}
					return fmt.Errorf("the body ends its first attempt: %w", client.ErrTxAborted)
				})
			},
			writes: 4, served: 3, logged: 1,
		},
		{
			name: "a backend without snapshots",
			why:  "moss serves RunReadTx as an ordinary transaction whose reads are logged accesses: each is sent and logged, the repeats ahead of their answers with the first read's answer as their promise, and the COMMIT waits for its verdict",
			srv: func() *server.Server {
				return server.New(server.Options{Backend: "moss", Objects: []string{"x", "y"}})
			},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunReadTx(1, reads(x(0), x(0), y(0), x(0)))
			},
			writes: 3, served: 0, logged: 4,
		},
		{
			name: "a moss connection never fetches",
			why:  "moss never answers BEGIN with the snapshot flag, so its connection keeps no view: the second transaction asks for x and y again, each read a logged access, 3 writes each",
			srv: func() *server.Server {
				return server.New(server.Options{Backend: "moss", Objects: []string{"x", "y"}})
			},
			run: func(t *testing.T, c, _ *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0), y(0))); err != nil {
					return err
				}
				return c.RunReadTx(1, reads(x(0), y(0)))
			},
			writes: 6, served: 0, logged: 4,
		},
		{
			name: "RunTx never fetches",
			why:  "a locking transaction on a warm connection asks for each of its reads, logged, and waits for its COMMIT: 3 writes after the snapshot transaction's 2",
			srv:  mvto,
			run: func(t *testing.T, c, _ *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0), y(0))); err != nil {
					return err
				}
				return c.RunTx(1, reads(x(0), y(0)))
			},
			writes: 5, served: 2, logged: 2,
		},
		{
			name: "Conn.Access never fetches",
			why:  "the synchronous methods on a warm connection are one request, one answer, whatever its view holds: BeginRO, two reads and the COMMIT are 4 writes after the snapshot transaction's 2, and the server serves each read once",
			srv:  mvto,
			run: func(t *testing.T, c, _ *client.Conn) error {
				if err := c.RunReadTx(1, reads(x(0), y(0))); err != nil {
					return err
				}
				if _, err := c.BeginRO(); err != nil {
					return err
				}
				for _, obj := range []string{"x", "y"} {
					if v, err := c.Access(obj, spec.OpRead, spec.Nil); err != nil || v != spec.Int(0) {
						return fmt.Errorf("read %s = %s, %v; want 0", obj, v, err)
					}
				}
				_, err := c.Commit()
				return err
			},
			writes: 6, served: 4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.srv()
			c, cli, _ := countedSession(t, s, false)
			w, _, _ := countedSession(t, s, false)
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			writes, served := cli.writes.Load(), s.Metrics().SnapshotReads.Load()
			if err := tc.run(t, c, w); err != nil {
				t.Fatalf("%v (%s)", err, tc.why)
			}
			if got := cli.writes.Load() - writes; got != tc.writes {
				t.Errorf("%d client writes, want %d: %s", got, tc.writes, tc.why)
			}
			if got := s.Metrics().SnapshotReads.Load() - served; got != tc.served {
				t.Errorf("the server served %d snapshot reads, want %d: %s", got, tc.served, tc.why)
			}
			c.Close()
			w.Close()
			shutdownAndVerify(t, s)
			if got := loggedAccesses(s); got != tc.logged {
				t.Errorf("%d accesses logged, want %d: %s", got, tc.logged, tc.why)
			}
		})
	}
}

// loggedAccesses counts the REQUEST_COMMIT events of accesses in the log of
// a server that has shut down.
func loggedAccesses(s *server.Server) int64 {
	tr := s.Tree()
	var n int64
	for _, e := range s.Log() {
		if e.Kind == event.RequestCommit && e.Tx != tname.Root && tr.IsAccess(e.Tx) {
			n++
		}
	}
	return n
}
