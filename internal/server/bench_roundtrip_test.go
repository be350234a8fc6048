package server_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// BenchmarkServerSessionRoundTrip measures one full request/response round
// trip — client encode, frame write, server read/parse/handle/encode, frame
// write, client read/parse — over an in-process pipe. After the first
// iteration warms the per-session scratch buffers (frame read buffer,
// encode buffer), the steady state must be allocation-free on both sides:
// the slice-cutting wire parsers, the geometric ReadFrame growth and the
// reused encode buffers exist exactly so this number is zero.
func BenchmarkServerSessionRoundTrip(b *testing.B) {
	s := server.New(server.Options{Objects: []string{"x"}})
	srvEnd, cliEnd := net.Pipe()
	s.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	// Warm the session and client scratch buffers outside the timed region.
	if err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// shapedTx is the repository benchmark's transaction (bench/plan.go): four
// accesses to a, b, c and d, the second inside a subtransaction — 8 request
// frames — where access i is a read if read(i) and a write otherwise.
func shapedTx(read func(i int) bool) func(tx *client.Tx) error {
	return shapedTxOn([4]string{"a", "b", "c", "d"}, read)
}

// shapedTxOn is shapedTx over the objects objs.
func shapedTxOn(objs [4]string, read func(i int) bool) func(tx *client.Tx) error {
	return func(tx *client.Tx) error {
		for i, obj := range objs {
			if i == 1 {
				if _, err := tx.Child(); err != nil {
					return err
				}
			}
			op, arg := spec.OpWrite, spec.Int(int64(i))
			if read(i) {
				op, arg = spec.OpRead, spec.Nil
			}
			if _, err := tx.Access(obj, op, arg); err != nil {
				return err
			}
			if i == 1 {
				if _, err := tx.Commit(); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

var (
	// benchmarkTx writes all four objects.
	benchmarkTx = shapedTx(func(int) bool { return false })
	// halfReadTx reads a and c and writes b and d: the 50 % read mix of the
	// benchmark's young, durable and aged workloads.
	halfReadTx = shapedTx(func(i int) bool { return i%2 == 0 })
	// readOnlyTx reads all four: the all-read transactions of the
	// benchmark's readmostly workload.
	readOnlyTx = shapedTx(func(int) bool { return true })
	// repeatReadTx reads a, b (in the subtransaction), a and b: a
	// read-only body that repeats two of its four reads.
	repeatReadTx = shapedTxOn([4]string{"a", "b", "a", "b"}, func(int) bool { return true })
	// readOwnWriteTx writes a, reads a, writes b (in the subtransaction)
	// and reads b: each read follows the attempt's own write.
	readOwnWriteTx = shapedTxOn([4]string{"a", "a", "b", "b"}, func(i int) bool { return i%2 == 1 })
)

// BenchmarkClientRunTx measures one whole RunTx of the benchmark's shape,
// one client over loopback TCP, and reports what it costs in write(2)s on
// the client's side (the server's are the same number): 1, since a body of
// writes and a subtransaction reads no answer before the COMMIT, against the
// 8 of a client that waits out every frame. allocs/op and B/op count both
// ends and the certifier behind them.
func BenchmarkClientRunTx(b *testing.B) { benchmarkRunTx(b, "moss", (*client.Conn).RunTx, benchmarkTx) }

// BenchmarkClientRunTxReadHalf is BenchmarkClientRunTx for the shape whose
// first and third accesses are reads: 3 writes per transaction, one for each
// read and one for the COMMIT.
func BenchmarkClientRunTxReadHalf(b *testing.B) {
	benchmarkRunTx(b, "moss", (*client.Conn).RunTx, halfReadTx)
}

// BenchmarkClientRunReadTx is BenchmarkClientRunTx for the shape's all-read
// form through RunReadTx on mvto, which serves it from a certified snapshot:
// 1 write per transaction, where asking for each read took 4. Its first read
// waits for the BEGIN's answer, which brings the connection's view, holding
// the four keys the transaction before it read, to its cut, and the view
// answers all four reads; the COMMIT rides with the next transaction's
// first write. It also reports the snapshot reads the server served per
// transaction: 0, since nothing commits between two transactions (4 when
// the first read fetched the other three).
func BenchmarkClientRunReadTx(b *testing.B) {
	benchmarkRunTx(b, "mvto", (*client.Conn).RunReadTx, readOnlyTx)
}

// BenchmarkClientRunReadTxMiss prices a view that misses: the shape's
// all-read form on mvto, each transaction on the next of four groups of
// four objects, so that the eight keys its connection's view holds are the
// two groups before it and none of the four it reads. Each read waits,
// 4 writes per transaction, and the session serves 4 snapshot reads per
// transaction, evicting the four oldest keys, which the next BEGIN's
// answer drops (12 when the first read fetched all eight keys).
//
// Its connection is warmed with missWarm transactions before the timer.
// The labels a transaction's names carry, which the server makes and the
// client decodes, are small strings the runtime packs into shared 16-byte
// blocks, so their bytes per transaction move with their digit count: timed
// from the first transaction, B/op read 48 at 10 000 iterations and 58 at
// 30 000. Warmed, every label the timed loop makes has five digits, up to
// 90 000 iterations, and B/op is one figure whatever b.N the run picks.
func BenchmarkClientRunReadTxMiss(b *testing.B) {
	var (
		objs   []string
		bodies [4]func(tx *client.Tx) error
	)
	for g := range bodies {
		var group [4]string
		for i := range group {
			group[i] = fmt.Sprintf("%c%d", 'a'+i, g)
		}
		objs = append(objs, group[:]...)
		bodies[g] = shapedTxOn(group, func(int) bool { return true })
	}
	n := 0
	benchmarkRunTxOn(b, objs, missWarm, "mvto", (*client.Conn).RunReadTx, func(tx *client.Tx) error {
		n++
		return bodies[n%len(bodies)](tx)
	})
}

// missWarm is how many transactions BenchmarkClientRunReadTxMiss runs
// before its timer: the next one's labels have five digits.
const missWarm = 9999

// BenchmarkClientRunReadTxRepeat is BenchmarkClientRunReadTx for a body that
// reads a, b (in a subtransaction), a and b: 1 write per transaction, where
// asking again took 4, since the connection's view, brought to the
// transaction's cut by its BEGIN's answer, answers every read: 0 snapshot
// reads served per transaction (2 when the first read fetched b).
func BenchmarkClientRunReadTxRepeat(b *testing.B) {
	benchmarkRunTx(b, "mvto", (*client.Conn).RunReadTx, repeatReadTx)
}

// BenchmarkClientRunTxRepeat is BenchmarkClientRunReadTxRepeat's body as a
// locking transaction, a moss RunTx: 3 writes per transaction, one for each
// first read and one for the COMMIT, since the attempt holds the repeats'
// answers and sends them ahead, where asking again took 5.
func BenchmarkClientRunTxRepeat(b *testing.B) {
	benchmarkRunTx(b, "moss", (*client.Conn).RunTx, repeatReadTx)
}

// BenchmarkClientRunTxReadOwnWrite is BenchmarkClientRunTx for a body that
// writes a, reads a, writes b and reads b, on moss: 1 write per transaction,
// the COMMIT, since each read is answered by the attempt's own write and
// sent ahead, where waiting for each read took 3.
func BenchmarkClientRunTxReadOwnWrite(b *testing.B) {
	benchmarkRunTx(b, "moss", (*client.Conn).RunTx, readOwnWriteTx)
}

// benchmarkRunTx times run(body) on one loopback connection to a backend
// server of the objects a, b, c and d.
func benchmarkRunTx(b *testing.B, backend string, run func(*client.Conn, int, func(*client.Tx) error) error, body func(tx *client.Tx) error) {
	benchmarkRunTxOn(b, []string{"a", "b", "c", "d"}, 1, backend, run, body)
}

// benchmarkRunTxOn is benchmarkRunTx on a server of the objects objs, whose
// connection runs warm transactions before the timer starts. It reports the
// client's writes per transaction, and on mvto the snapshot reads the
// server served per transaction.
func benchmarkRunTxOn(b *testing.B, objs []string, warm int, backend string, run func(*client.Conn, int, func(*client.Tx) error) error, body func(tx *client.Tx) error) {
	s := server.New(server.Options{Backend: backend, Objects: objs})
	c, cli, _ := countedSession(b, s, false)
	for range warm {
		if err := run(c, 1, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	writes, served := cli.writes.Load(), s.Metrics().SnapshotReads.Load()
	for i := 0; i < b.N; i++ {
		if err := run(c, 1, body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cli.writes.Load()-writes)/float64(b.N), "writes/tx")
	if backend == "mvto" {
		b.ReportMetric(float64(s.Metrics().SnapshotReads.Load()-served)/float64(b.N), "served/tx")
	}
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerDurableRunTx measures whole RunTx calls of the benchmark's
// half-read shape against a durable server on a real directory, from 1, 2
// and 8 clients over loopback TCP at once, each on objects of its own, and
// reports what group commit made of them: fsyncs per top-level commit, 1
// when every commit pays its own. ns/op is per transaction, whichever
// client ran it. Run it with -cpu 1,2: at GOMAXPROCS=1 a cohort forms only
// if the sync leader settles before its fsync (walWriter.settle).
func BenchmarkServerDurableRunTx(b *testing.B) {
	for _, clients := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			disk, err := server.NewDirDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			var objs []string
			bodies := make([]func(*client.Tx) error, clients)
			for k := range bodies {
				own := [4]string{}
				for i, o := range [...]string{"a", "b", "c", "d"} {
					own[i] = fmt.Sprintf("%s%d", o, k)
				}
				objs = append(objs, own[:]...)
				bodies[k] = shapedTxOn(own, func(i int) bool { return i%2 == 0 })
			}
			s, _, err := server.Recover(server.Options{WAL: disk, Objects: objs})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			conns := make([]*client.Conn, clients)
			for k := range conns {
				if conns[k], err = client.Dial(s.Addr().String()); err != nil {
					b.Fatal(err)
				}
				if err := conns[k].RunTx(1, bodies[k]); err != nil {
					b.Fatal(err)
				}
			}
			m := s.Metrics()
			syncs, commits := m.WALSyncs.Load(), m.TopCommits.Load()
			var next atomic.Int64
			errs := make(chan error, clients)
			b.ResetTimer()
			for k := range conns {
				go func(k int) {
					for next.Add(1) <= int64(b.N) {
						if err := conns[k].RunTx(10, bodies[k]); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(k)
			}
			for range conns {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(m.WALSyncs.Load()-syncs)/float64(m.TopCommits.Load()-commits), "fsyncs/tx")
			for _, c := range conns {
				c.Close()
			}
			if err := s.Shutdown(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestAccessRequestAllocs pins what requests allocate end to end, both
// sides and the certifier included, one row a request sequence, each in
// its steady state:
//
//   - one ACCESS in a long transaction: the request's object name, the
//     access's label — built in the session's scratch buffer, where
//     fmt.Sprintf would box its operand and cost one more — and what the
//     name tree, the log, the object and the graph keep per access: 2.02
//     measured;
//   - the same ACCESS to a label longer than a byte: 2.02 as well, since
//     the request parser reads the label as a view of the frame and the
//     session only looks it up;
//   - a snapshot read in a read-only transaction on mvto: 0.03, for the
//     same reason;
//   - a blind write sent ahead inside a RunTx: 2.02, the same as the
//     synchronous ACCESS, since neither the held answer its write records
//     nor the promise allocates;
//   - a read sent ahead whose answer the attempt holds: 1.02, one fewer
//     than a blind write's;
//   - a whole BEGIN → CHILD → ACCESS → COMMIT → COMMIT transaction: just
//     over 6, the names the server makes and what the tree, the log and
//     the graph keep among them. The session's frames are values whose
//     slots keep their backing arrays, so BEGIN and CHILD allocate no
//     frame and the touches no array; a frame apiece and a touched array
//     apiece cost 4 more. A race build adds raceTxAllocs.
//
// Each bar is the measured value plus less than one allocation, so one
// more allocation per request fails it.
func TestAccessRequestAllocs(t *testing.T) {
	for _, row := range []struct {
		name string
		// begin and end, if set, run once around the measured ops; ro makes
		// the begin a BeginRO on mvto, whose reads are snapshot reads.
		begin, end, ro bool
		op             func(c *client.Conn) error
		// ahead, if set, is measured in place of op inside one RunTx.
		ahead func(tx *client.Tx) error
		want  float64
	}{
		{name: "ACCESS", begin: true, end: true, op: func(c *client.Conn) error {
			_, err := c.Access("x", spec.OpWrite, spec.Int(1))
			return err
		}, want: 2.5},
		{name: "ACCESS to a multi-byte label", begin: true, end: true, op: func(c *client.Conn) error {
			_, err := c.Access("xyz", spec.OpWrite, spec.Int(1))
			return err
		}, want: 2.5},
		{name: "snapshot read", begin: true, end: true, ro: true, op: func(c *client.Conn) error {
			_, err := c.Access("xyz", spec.OpRead, spec.Nil)
			return err
		}, want: 0.5},
		{name: "blind write sent ahead", ahead: func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
			return err
		}, want: 2.5},
		{name: "promised read sent ahead", ahead: func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpRead, spec.Nil)
			return err
		}, want: 1.5},
		{name: "BEGIN CHILD ACCESS COMMIT COMMIT", op: func(c *client.Conn) error {
			if _, err := c.Begin(); err != nil {
				return err
			}
			if _, err := c.Child(); err != nil {
				return err
			}
			if _, err := c.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
				return err
			}
			if _, err := c.Commit(); err != nil {
				return err
			}
			_, err := c.Commit()
			return err
		}, want: 6.5 + raceTxAllocs},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := server.Options{Objects: []string{"x", "xyz"}}
			if row.ro {
				opts.Backend = "mvto"
			}
			s := server.New(opts)
			srvEnd, cliEnd := net.Pipe()
			s.ServeConn(srvEnd)
			c := client.NewConn(cliEnd)
			measure := func(op func() error) {
				run := func(n int) {
					for i := 0; i < n; i++ {
						if err := op(); err != nil {
							t.Fatal(err)
						}
					}
				}
				run(500) // warm the scratch buffers and the first doublings
				const n = 2000
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run(n)
				runtime.ReadMemStats(&after)
				per := float64(after.Mallocs-before.Mallocs) / n
				t.Logf("%.2f allocations per %s", per, row.name)
				if per > row.want {
					t.Errorf("%.2f allocations per %s, want at most %.1f", per, row.name, row.want)
				}
			}
			if row.ahead != nil {
				if err := c.RunTx(1, func(tx *client.Tx) error {
					measure(func() error { return row.ahead(tx) })
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			} else {
				begin := c.Begin
				if row.ro {
					begin = c.BeginRO
				}
				if row.begin {
					if _, err := begin(); err != nil {
						t.Fatal(err)
					}
				}
				measure(func() error { return row.op(c) })
				if row.end {
					if _, err := c.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyBeginAllocs pins what a read-only BEGIN on a snapshot backend
// allocates end to end, with the COMMIT that ends it: the label "s<id>.r<n>",
// built in the session's scratch buffer — fmt.Sprintf would box its counter
// and cost one more — and the client's copy of it. Nothing is interned or
// logged for a read-only transaction, so that is all.
func TestReadOnlyBeginAllocs(t *testing.T) {
	s := server.New(server.Options{Backend: "mvto", Objects: []string{"x"}})
	srvEnd, cliEnd := net.Pipe()
	s.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	roTx := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.BeginRO(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	roTx(500) // warm the scratch buffers; past 255 a boxed counter allocates
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roTx(n)
	runtime.ReadMemStats(&after)
	perBegin := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocations per read-only BEGIN and its COMMIT", perBegin)
	if perBegin > 2.5 {
		t.Fatalf("%.2f allocations per read-only BEGIN and its COMMIT, want 2 (3 with a formatted label)", perBegin)
	}
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRepeatReadAllocs pins what a snapshot transaction's read of x
// costs when its client holds the answer: nothing is sent, and the answer
// comes from the connection's view, so it allocates nothing. The view holds
// it either as a repeat of the attempt's own read of x, or because a
// transaction before it read x, and the attempt's first read, of y, brought
// the view to the attempt's cut.
func TestSnapshotRepeatReadAllocs(t *testing.T) {
	read := func(tx *client.Tx, obj string) (spec.Value, error) { return tx.Access(obj, spec.OpRead, spec.Nil) }
	for _, row := range []struct {
		name string
		// warm runs on the connection before the measured transaction, whose
		// first read is of first.
		warm   bool
		first  string
		served int64 // snapshot reads the server serves in all
	}{
		{name: "repeated", first: "x", served: 1},
		{name: "fetched", warm: true, first: "y", served: 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := server.New(server.Options{Backend: "mvto", Objects: []string{"x", "y"}})
			srvEnd, cliEnd := net.Pipe()
			s.ServeConn(srvEnd)
			c := client.NewConn(cliEnd)
			if row.warm {
				if err := c.RunReadTx(1, func(tx *client.Tx) error {
					_, err := read(tx, "x")
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			var perRead float64
			if err := c.RunReadTx(1, func(tx *client.Tx) error {
				if _, err := read(tx, row.first); err != nil {
					return err
				}
				perRead = testing.AllocsPerRun(2000, func() {
					if v, err := read(tx, "x"); err != nil || v != spec.Int(0) {
						t.Fatalf("held read = %v, %v; want 0", v, err)
					}
				})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if reads := s.Metrics().SnapshotReads.Load(); reads != row.served {
				t.Fatalf("the server served %d snapshot reads, want %d", reads, row.served)
			}
			if perRead != 0 {
				t.Fatalf("%.2f allocations per held snapshot read, want 0", perRead)
			}
			c.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
