package server_test

import (
	"fmt"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// TestHeldAnswers: a transaction's client answers a read-only access whose
// answer the attempt already holds — a repeat of a read it made, or a read
// its own update of the object answers — at once, and sends it ahead with
// that answer as its promise, so the server still logs it; only a snapshot
// transaction sends nothing. Anything that could change the answer makes the
// read wait again: another op or argument, an own update the answer does not
// follow from, a subtransaction's Abort, a new attempt. Each row runs on
// moss, undolog and mvto (the register rows; mvto serves only registers), on
// one counted connection with a second one for the writes between its
// transactions, and gives the client's writes, which are its waits plus the
// COMMIT, and the accesses the server logs. The bodies check every value
// they are handed.
func TestHeldAnswers(t *testing.T) {
	x := func(want int64) read { return read{"x", spec.OpRead, spec.Nil, spec.Int(want)} }
	writeX := func(v int64) read { return read{"x", spec.OpWrite, spec.Int(v), spec.OK} }
	member := func(n int64, want bool) read { return read{"s", spec.OpMember, spec.Int(n), spec.Bool(want)} }
	insert := func(n int64) read { return read{"s", spec.OpInsert, spec.Int(n), spec.OK} }
	remove := func(n int64) read { return read{"s", spec.OpRemove, spec.Int(n), spec.OK} }
	get := func(want int64) read { return read{"n", spec.OpGet, spec.Nil, spec.Int(want)} }
	inc := read{"n", spec.OpIncrement, spec.Int(1), spec.OK}
	size := func(want int64) read { return read{"s", spec.OpSize, spec.Nil, spec.Int(want)} }
	// child runs rs in a subtransaction that commits, or aborts if abort.
	child := func(abort bool, rs ...read) func(tx *client.Tx) error {
		return func(tx *client.Tx) error {
			if _, err := tx.Child(); err != nil {
				return err
			}
			if err := reads(rs...)(tx); err != nil {
				return err
			}
			if abort {
				return tx.Abort()
			}
			_, err := tx.Commit()
			return err
		}
	}
	// seq runs the bodies in order.
	seq := func(bodies ...func(tx *client.Tx) error) func(tx *client.Tx) error {
		return func(tx *client.Tx) error {
			for _, b := range bodies {
				if err := b(tx); err != nil {
					return err
				}
			}
			return nil
		}
	}

	for _, tc := range []struct {
		name string
		why  string
		// sp is the type of the server's objects: x and y are registers, s
		// a set and n a counter.
		sp spec.Spec
		// snapshot rows run on mvto alone, which serves snapshots.
		snapshot bool
		// run runs the row's transactions on c, and any write between them
		// on w.
		run func(t *testing.T, c, w *client.Conn) error
		// writes is what c writes; logged is how many accesses the server
		// logs.
		writes, logged int64
	}{
		{
			name: "a repeat read",
			why:  "the attempt holds x's answer: the repeat rides ahead, 1 wait where asking again took 2, and both reads are logged",
			sp:   spec.Register{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, reads(x(0), x(0)))
			},
			writes: 2, logged: 2,
		},
		{
			name: "a read after an own write",
			why:  "the written value is the answer: 0 waits, and the COMMIT carries the write and the read",
			sp:   spec.Register{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, reads(writeX(5), x(5)))
			},
			writes: 1, logged: 2,
		},
		{
			name: "a read after a committed child's write",
			why:  "the child's commit hands its write to the parent: the parent's read is answered 5 with 0 waits",
			sp:   spec.Register{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, seq(child(false, writeX(5)), reads(x(5))))
			},
			writes: 1, logged: 2,
		},
		{
			name: "member after an own insert or remove",
			why:  "insert(3) answers member(3) true and remove(4) answers member(4) false: 0 waits",
			sp:   spec.IntSet{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, reads(insert(3), member(3, true), remove(4), member(4, false)))
			},
			writes: 1, logged: 4,
		},
		{
			name: "after a subtransaction Abort",
			why:  "the Abort drops the held answers: the read after it waits again and sees 0, not the aborted 5 (read, ABORT, read, COMMIT)",
			sp:   spec.Register{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, seq(reads(x(0)), child(true, writeX(5)), reads(x(0))))
			},
			writes: 4, logged: 3,
		},
		{
			name: "after an own inc",
			why:  "an increment fixes no answer of get: get waits again and sees 1",
			sp:   spec.Counter{},
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunTx(1, reads(get(0), inc, get(1)))
			},
			writes: 3, logged: 3,
		},
		{
			name: "another op or argument",
			why:  "member(4) and size ask other questions than member(3): each waits once, and only the repeats ride ahead",
			sp:   spec.IntSet{},
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := w.RunTx(1, reads(insert(3))); err != nil {
					return err
				}
				return c.RunTx(1, reads(member(3, true), member(4, false), size(1), member(4, false), size(1), member(3, true)))
			},
			writes: 4, logged: 7,
		},
		{
			name: "a retried attempt",
			why:  "a retry starts with nothing held: its read waits again and sees the commit made between the attempts (read, ABORT, read, COMMIT)",
			sp:   spec.Register{},
			run: func(t *testing.T, c, w *client.Conn) error {
				attempts := 0
				return c.RunTx(2, func(tx *client.Tx) error {
					if attempts++; attempts == 2 {
						return reads(x(7))(tx)
					}
					if err := reads(x(0))(tx); err != nil {
						return err
					}
					if err := tx.Abort(); err != nil {
						return err
					}
					writeTx(t, w, "x", 7)
					return fmt.Errorf("the body ends its first attempt: %w", client.ErrTxAborted)
				})
			},
			writes: 4, logged: 3,
		},
		{
			name: "the next transaction",
			why:  "a committed attempt's answers go with it: the next transaction's read waits and sees the commit made since",
			sp:   spec.Register{},
			run: func(t *testing.T, c, w *client.Conn) error {
				if err := c.RunTx(1, reads(x(0))); err != nil {
					return err
				}
				writeTx(t, w, "x", 7)
				return c.RunTx(1, reads(x(7), x(7)))
			},
			writes: 4, logged: 4,
		},
		{
			name:     "a snapshot repeat",
			why:      "a snapshot transaction's repeat sends nothing: 1 write, and no access logged",
			sp:       spec.Register{},
			snapshot: true,
			run: func(t *testing.T, c, _ *client.Conn) error {
				return c.RunReadTx(1, reads(x(0), x(0)))
			},
			writes: 1, logged: 0,
		},
	} {
		backends := server.BackendNames()
		switch {
		case tc.snapshot:
			backends = []string{"mvto"}
		case tc.sp.Name() != (spec.Register{}).Name():
			backends = []string{"moss", "undolog"}
		}
		for _, backend := range backends {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				s := server.New(server.Options{Backend: backend, DefaultSpec: tc.sp, Objects: []string{"x", "y", "s", "n"}})
				c, cli, _ := countedSession(t, s, false)
				w, _, _ := countedSession(t, s, false)
				if err := c.Ping(); err != nil {
					t.Fatal(err)
				}
				writes := cli.writes.Load()
				if err := tc.run(t, c, w); err != nil {
					t.Fatalf("%v (%s)", err, tc.why)
				}
				if got := cli.writes.Load() - writes; got != tc.writes {
					t.Errorf("%d client writes, want %d: %s", got, tc.writes, tc.why)
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
}
