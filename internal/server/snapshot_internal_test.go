package server

import (
	"runtime"
	"strings"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/spec"
)

// TestPublishCostIsFlat: publishing a committed version costs the same at
// 10 and at 10 000 older versions — one list node and the state Apply
// returns — where a copy-on-write history paid a copy of every older one.
func TestPublishCostIsFlat(t *testing.T) {
	s := New(Options{Backend: "mvto", Objects: []string{"x"}})
	s.mu.RLock()
	o := s.objs[s.tr.Object("x")]
	s.mu.RUnlock()
	seq := 0
	publish := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			o.publish(seq, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(seq))})
		}
	}
	// cost publishes n more versions and returns the mallocs and bytes each
	// one took.
	cost := func(n int) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		publish(n)
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / uint64(n), (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	publish(10)
	m10, b10 := cost(100)
	publish(10_000 - seq)
	m10k, b10k := cost(100)
	t.Logf("per publish: %d mallocs, %d B at 10 versions; %d mallocs, %d B at 10 000", m10, b10, m10k, b10k)
	if m10k != m10 || b10k != b10 {
		t.Fatalf("publishing at 10 000 versions took %d mallocs and %d B, at 10 took %d and %d; want equal", m10k, b10k, m10, b10)
	}
	if got := o.stateAt(seq + 1); got != spec.State(spec.Int(int64(seq))) {
		t.Fatalf("newest state %v, want %d", got, seq)
	}
	if got := o.stateAt(1); got != spec.State(spec.Int(0)) {
		t.Fatalf("state at cut 1 is %v, want the initial 0", got)
	}
}

// TestSnapshotCutStopsAtRejection: once the certifier has stored a
// rejection at log index k, a read-only BEGIN pins a cut at most k, however
// far the watermark has run past it — the events from k on belong to no
// acyclic SG(β) prefix, and a snapshot reader must not see what they
// published.
func TestSnapshotCutStopsAtRejection(t *testing.T) {
	s := New(Options{Backend: "mvto", Objects: []string{"x"}})
	st := newSnapshotStore(s)
	s.cert.watermark.Store(10)
	if got := st.cut(); got != 10 {
		t.Fatalf("cut without a rejection = %d, want the watermark 10", got)
	}
	const k = 4
	s.cert.rejected.Store(&rejection{at: k})
	if got := st.cut(); got > k {
		t.Fatalf("cut = %d with a rejection at log index %d and the watermark at 10, want at most %d", got, k, k)
	}
	// A rejection the watermark has not reached yet changes nothing.
	s.cert.rejected.Store(&rejection{at: 12})
	if got := st.cut(); got != 10 {
		t.Fatalf("cut = %d with a rejection at 12 beyond the watermark 10, want 10", got)
	}
}

// snapshotServer starts a server whose certifier feeds a snapshot store
// whatever its backend (NewWithSnapshots).
func snapshotServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := NewWithSnapshots(opts)
	must(t, s.Start("127.0.0.1:0"))
	return s
}

// snapshotOp runs one read-only op on label in a read-only transaction of
// its own.
func snapshotOp(t *testing.T, c *client.Conn, label string, op spec.Op) spec.Value {
	t.Helper()
	var v spec.Value
	must(t, c.RunReadTx(1, func(tx *client.Tx) error {
		var err error
		v, err = tx.Access(label, op.Kind, op.Arg)
		return err
	}))
	return v
}

// TestSnapshotStoreServesEveryType: on both locking backends and for every
// type with a read-only op, a snapshot read answers from the committed
// state at once. A writer holding an uncommitted update on the same object
// does not make it park, since it reads a published version and takes no
// lock; an update a subtransaction made and then aborted is never
// published; once the writer commits, the next read-only transaction sees
// its update. A queue has no read-only op, so the snapshot refuses every
// access to one.
func TestSnapshotStoreServesEveryType(t *testing.T) {
	op := func(k spec.OpKind, arg int64) spec.Op { return spec.Op{Kind: k, Arg: spec.Int(arg)} }
	types := []struct {
		sp            spec.Spec
		committed     []spec.Op // one committed transaction each
		aborted       spec.Op   // an update in a subtransaction that aborts
		open          spec.Op   // the writer's uncommitted update
		read          spec.Op
		before, after spec.Value
	}{
		{spec.Register{}, []spec.Op{op(spec.OpWrite, 5), op(spec.OpWrite, 7)}, op(spec.OpWrite, 50), op(spec.OpWrite, 99),
			spec.Op{Kind: spec.OpRead, Arg: spec.Nil}, spec.Int(7), spec.Int(99)},
		{spec.Counter{}, []spec.Op{op(spec.OpIncrement, 3), op(spec.OpIncrement, 4)}, op(spec.OpIncrement, 50), op(spec.OpIncrement, 100),
			spec.Op{Kind: spec.OpGet, Arg: spec.Nil}, spec.Int(7), spec.Int(107)},
		{spec.Account{}, []spec.Op{op(spec.OpDeposit, 10), op(spec.OpWithdraw, 3)}, op(spec.OpDeposit, 50), op(spec.OpWithdraw, 7),
			spec.Op{Kind: spec.OpBalance, Arg: spec.Nil}, spec.Int(7), spec.Int(0)},
		{spec.IntSet{}, []spec.Op{op(spec.OpInsert, 1), op(spec.OpInsert, 2)}, op(spec.OpInsert, 3), op(spec.OpInsert, 3),
			op(spec.OpMember, 3), spec.Bool(false), spec.Bool(true)},
		{spec.AppendLog{}, []spec.Op{op(spec.OpAppend, 1), op(spec.OpAppend, 2)}, op(spec.OpAppend, 9), op(spec.OpAppend, 3),
			spec.Op{Kind: spec.OpLen, Arg: spec.Nil}, spec.Int(2), spec.Int(3)},
	}
	for _, backend := range []string{"moss", "undolog"} {
		for _, tc := range types {
			t.Run(backend+"/"+tc.sp.Name(), func(t *testing.T) {
				s := snapshotServer(t, Options{Backend: backend, DefaultSpec: tc.sp, Objects: []string{"x"}})
				w, r := dialIn(t, s), dialIn(t, s)
				for _, u := range tc.committed {
					must(t, w.RunTx(1, func(tx *client.Tx) error {
						_, err := tx.Access("x", u.Kind, u.Arg)
						return err
					}))
				}
				// A committed top whose only update was undone with its
				// subtransaction publishes nothing.
				_, err := w.Begin()
				must(t, err)
				_, err = w.Child()
				must(t, err)
				_, err = w.Access("x", tc.aborted.Kind, tc.aborted.Arg)
				must(t, err)
				must(t, w.Abort())
				_, err = w.Commit()
				must(t, err)

				_, err = w.Begin()
				must(t, err)
				_, err = w.Access("x", tc.open.Kind, tc.open.Arg)
				must(t, err)
				polls := s.Metrics().BlockedPolls.Load()
				if v := snapshotOp(t, r, "x", tc.read); v != tc.before {
					t.Fatalf("%s beside an open writer = %s, want the committed %s", tc.read, v, tc.before)
				}
				if n := s.Metrics().BlockedPolls.Load() - polls; n != 0 {
					t.Fatalf("the read-only transaction was refused %d grants, want none", n)
				}
				_, err = w.Commit()
				must(t, err)
				if v := snapshotOp(t, r, "x", tc.read); v != tc.after {
					t.Fatalf("%s after the writer's commit = %s, want %s", tc.read, v, tc.after)
				}
				if n := s.Metrics().ROBegins.Load(); n != 2 {
					t.Fatalf("%d snapshot BEGINs, want 2", n)
				}
				finalMatches(t, s)
			})
		}
	}
	t.Run("queue", func(t *testing.T) {
		s := snapshotServer(t, Options{DefaultSpec: spec.Queue{}, Objects: []string{"q"}})
		c := dialIn(t, s)
		_, err := c.BeginRO()
		must(t, err)
		for _, k := range []spec.OpKind{spec.OpDeq, spec.OpEnq} {
			if _, err := c.Access("q", k, spec.Int(1)); err == nil || !strings.Contains(err.Error(), "not allowed") {
				t.Fatalf("%s on a queue in a read-only transaction: %v, want a refusal", k, err)
			}
		}
		_, err = c.Commit()
		must(t, err)
		finalMatches(t, s)
	})
}

// TestSnapshotPublishesInCommitOrder: undo logging lets two top-level
// transactions increment one counter concurrently, since increments commute
// backward. The one that incremented second commits first, and the store
// publishes in commit order: the cut between the two commits holds the
// first committer's increment alone, and the cut after both holds the sum.
func TestSnapshotPublishesInCommitOrder(t *testing.T) {
	s := snapshotServer(t, Options{Backend: "undolog", DefaultSpec: spec.Counter{}, Objects: []string{"n"}})
	a, b, r := dialIn(t, s), dialIn(t, s), dialIn(t, s)
	get := spec.Op{Kind: spec.OpGet, Arg: spec.Nil}
	for _, step := range []struct {
		c   *client.Conn
		inc int64
	}{{a, 3}, {b, 4}} {
		_, err := step.c.Begin()
		must(t, err)
		_, err = step.c.Access("n", spec.OpIncrement, spec.Int(step.inc))
		must(t, err)
	}
	_, err := b.Commit()
	must(t, err)
	if v := snapshotOp(t, r, "n", get); v != spec.Int(4) {
		t.Fatalf("after the second incrementer's commit: get = %s, want 4", v)
	}
	_, err = a.Commit()
	must(t, err)
	if v := snapshotOp(t, r, "n", get); v != spec.Int(7) {
		t.Fatalf("after both commits: get = %s, want 7", v)
	}
	finalMatches(t, s)
}
