package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

var readOp = spec.Op{Kind: spec.OpRead, Arg: spec.Nil}

// pipeConn serves a new session of s over a net.Pipe and returns its
// client and the session's id.
func pipeConn(t *testing.T, s *Server) (*client.Conn, int64) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	id := s.ServeConn(srvEnd)
	if id < 0 {
		t.Fatal("the server refused the connection")
	}
	c := client.NewConn(cliEnd)
	t.Cleanup(func() { c.Close() })
	return c, id
}

// readTx runs one RunReadTx on c whose body reads each of objs in order and
// fails unless each answers want[i].
func readTx(c *client.Conn, objs []string, want []int64) error {
	return c.RunReadTx(1, func(tx *client.Tx) error {
		for i, obj := range objs {
			v, err := tx.Access(obj, spec.OpRead, spec.Nil)
			if err != nil {
				return err
			}
			if v != spec.Int(want[i]) {
				return fmt.Errorf("read %s = %s, want %d", obj, v, want[i])
			}
		}
		return nil
	})
}

// writeTo commits v to obj on c.
func writeTo(c *client.Conn, obj string, v int64) error {
	return c.RunTx(10, func(tx *client.Tx) error {
		_, err := tx.Access(obj, spec.OpWrite, spec.Int(v))
		return err
	})
}

// TestSnapshotView: a connection's view answers a snapshot transaction's
// reads of the keys its earlier ones were served, at the new cut, with no
// request; the BEGIN's answer pushes what a commit changed and drops what
// the session evicted. Each row runs warm on a connection c (and on a
// second one, w, for other work), then one measured RunReadTx on c, and
// counts the requests the server handles for it — the BEGIN, the COMMIT
// the transaction before it left owed, and each read sent — and the
// snapshot reads it serves, pushes included.
func TestSnapshotView(t *testing.T) {
	var nine []string
	for i := 0; i < 9; i++ {
		nine = append(nine, fmt.Sprintf("k%d", i))
	}
	for _, tc := range []struct {
		name    string
		backend string
		warm    func(c, w *client.Conn) error
		// The measured transaction reads x (or read, when set) and must
		// get want.
		read             string
		want             int64
		requests, served int64
	}{
		{
			name: "an unchanged key is answered with no request",
			warm: func(c, _ *client.Conn) error { return readTx(c, []string{"x"}, []int64{0}) },
			want: 0, requests: 2, served: 0,
		},
		{
			name: "a key a commit changed between two cuts is pushed with its new value",
			warm: func(c, w *client.Conn) error {
				if err := readTx(c, []string{"x"}, []int64{0}); err != nil {
					return err
				}
				return writeTo(w, "x", 7)
			},
			want: 7, requests: 2, served: 1,
		},
		{
			name: "a key evicted by a ninth distinct read is dropped at the next BEGIN and asked for again",
			warm: func(c, w *client.Conn) error {
				if err := readTx(c, nine, make([]int64, len(nine))); err != nil {
					return err
				}
				return writeTo(w, "k0", 5)
			},
			read: "k0", want: 5, requests: 3, served: 1,
		},
		{
			name: "an object created after the view's cut is pushed",
			warm: func(c, w *client.Conn) error {
				if err := readTx(c, []string{"z"}, []int64{0}); err != nil {
					return err
				}
				return writeTo(w, "z", 3)
			},
			read: "z", want: 3, requests: 2, served: 1,
		},
		{
			name: "the connection's own committed write is seen by its next snapshot transaction",
			warm: func(c, _ *client.Conn) error {
				if err := readTx(c, []string{"x"}, []int64{0}); err != nil {
					return err
				}
				return writeTo(c, "x", 9)
			},
			want: 9, requests: 1, served: 1,
		},
		{
			name:    "a moss connection never keeps a view",
			backend: "moss",
			warm:    func(c, _ *client.Conn) error { return readTx(c, []string{"x"}, []int64{0}) },
			want:    0, requests: 3, served: 0,
		},
		{
			name: "a new connection starts empty",
			warm: func(_, w *client.Conn) error { return readTx(w, []string{"x"}, []int64{0}) },
			want: 0, requests: 2, served: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := tc.backend
			if backend == "" {
				backend = "mvto"
			}
			s := New(Options{Backend: backend, Objects: append([]string{"x"}, nine...)})
			c, _ := pipeConn(t, s)
			w, _ := pipeConn(t, s)
			if err := tc.warm(c, w); err != nil {
				t.Fatal(err)
			}
			if err := w.Ping(); err != nil { // w owes nothing
				t.Fatal(err)
			}
			read := tc.read
			if read == "" {
				read = "x"
			}
			m := s.Metrics()
			requests, served := m.Requests.Load(), m.SnapshotReads.Load()
			if err := readTx(c, []string{read}, []int64{tc.want}); err != nil {
				t.Fatal(err)
			}
			if got := m.Requests.Load() - requests; got != tc.requests {
				t.Errorf("the server handled %d requests, want %d", got, tc.requests)
			}
			if got := m.SnapshotReads.Load() - served; got != tc.served {
				t.Errorf("the server served %d snapshot reads, want %d", got, tc.served)
			}
			c.Close()
			w.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestViewAdvanceBounds: a snapshot BEGIN pushes a view key exactly when
// its object published a version at a log index in [the view's cut, the
// new cut): a version at the view's own cut is outside the state the
// client holds, and one at the new cut is outside the state it pins.
func TestViewAdvanceBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seq    int // the version published after the key was served
		pushed bool
	}{
		{name: "before the view's cut", seq: 9, pushed: false},
		{name: "at the view's cut", seq: 10, pushed: true},
		{name: "inside the interval", seq: 15, pushed: true},
		{name: "the last index inside", seq: 19, pushed: true},
		{name: "at the new cut", seq: 20, pushed: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Backend: "mvto", Objects: []string{"x"}})
			s.mu.RLock()
			o := s.objs[s.tr.Object("x")]
			s.mu.RUnlock()
			o.publish(5, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
			var vw view
			vw.cut = 10
			vw.served("x", readOp, o)
			o.publish(tc.seq, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)})
			delta, reset := vw.advance(s.cert.snap, 20)
			if reset {
				t.Fatal("the view was reset")
			}
			r := wire.NewViewReader(delta)
			e, ok := r.Next()
			if ok != tc.pushed {
				t.Fatalf("pushed %v (%+v), want %v", ok, e, tc.pushed)
			}
			if ok && (!e.Push || e.Obj != "x" || e.Op != readOp || e.Value != spec.Int(2)) {
				t.Fatalf("delta entry %+v, want a push of x = 2", e)
			}
			if vw.cut != 20 {
				t.Fatalf("the view's cut is %d after the BEGIN, want 20", vw.cut)
			}
		})
	}
}

// TestSnapshotViewDifferential: two connections run read-only transactions
// over more keys than a view keeps, through RunReadTx and through the
// synchronous methods, and locking writes, at random and at once; every
// answer a snapshot transaction's body gets, from the view or served, must
// be the state at the cut its BEGIN pinned, which the test reads off the
// session once the BEGIN's answer has arrived.
func TestSnapshotViewDifferential(t *testing.T) {
	const keys = 12
	var objs []string
	for i := 0; i < keys; i++ {
		objs = append(objs, fmt.Sprintf("o%d", i))
	}
	s := New(Options{Backend: "mvto", Objects: objs})
	stateAt := func(obj string, cut int) spec.Value {
		s.mu.RLock()
		o := s.objs[s.tr.Object(obj)]
		s.mu.RUnlock()
		_, v := o.sp.Apply(o.stateAt(cut), readOp)
		return v
	}
	session := func(id int64) *session {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		for sn := range s.conns {
			if sn.id == id {
				return sn
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for k := 0; k < 2; k++ {
		c, id := pipeConn(t, s)
		r := rand.New(rand.NewSource(int64(k) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// reads makes n reads through access and checks each. Any read
			// waits for the BEGIN's answer first, and the session then sits
			// in its next read: the cut it wrote before that answer is safe
			// to read.
			reads := func(i, n int, access func(string, spec.OpKind, spec.Value) (spec.Value, error)) error {
				for j := 0; j < n; j++ {
					obj := objs[r.Intn(keys)]
					v, err := access(obj, spec.OpRead, spec.Nil)
					if err != nil {
						return err
					}
					cut := session(id).roCut
					if want := stateAt(obj, cut); v != want {
						return fmt.Errorf("transaction %d read %s = %s, want %s at its cut %d", i, obj, v, want, cut)
					}
				}
				return nil
			}
			for i := 0; i < 200; i++ {
				var err error
				switch n := 1 + r.Intn(5); r.Intn(10) {
				case 0, 1, 2:
					err = writeTo(c, objs[r.Intn(keys)], int64(r.Intn(100)))
				case 3:
					if _, err = c.BeginRO(); err == nil {
						if err = reads(i, n, c.Access); err == nil {
							_, err = c.Commit()
						}
					}
				default:
					err = c.RunReadTx(1, func(tx *client.Tx) error { return reads(i, n, tx.Access) })
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
