package server_test

import (
	"context"
	"net"
	"runtime"
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
	return func(tx *client.Tx) error {
		for i, obj := range [...]string{"a", "b", "c", "d"} {
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
)

// BenchmarkClientRunTx measures one whole RunTx of the benchmark's shape,
// one client over loopback TCP, and reports what it costs in write(2)s on
// the client's side (the server's are the same number): 1, since a body of
// writes and a subtransaction reads no answer before the COMMIT, against the
// 8 of a client that waits out every frame. allocs/op and B/op count both
// ends and the certifier behind them.
func BenchmarkClientRunTx(b *testing.B) { benchmarkRunTx(b, benchmarkTx) }

// BenchmarkClientRunTxReadHalf is BenchmarkClientRunTx for the shape whose
// first and third accesses are reads: 3 writes per transaction, one for each
// read and one for the COMMIT.
func BenchmarkClientRunTxReadHalf(b *testing.B) { benchmarkRunTx(b, halfReadTx) }

func benchmarkRunTx(b *testing.B, body func(tx *client.Tx) error) {
	s := server.New(server.Options{Objects: []string{"a", "b", "c", "d"}})
	c, cli, _ := countedSession(b, s, false)
	if err := c.RunTx(1, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	writes := cli.writes.Load()
	for i := 0; i < b.N; i++ {
		if err := c.RunTx(1, body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cli.writes.Load()-writes)/float64(b.N), "writes/tx")
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// TestAccessRequestAllocs pins what one ACCESS request allocates end to end,
// both sides and the certifier included, in the steady state of a long
// transaction: the request's object name, the access's label — built in the
// session's scratch buffer, where fmt.Sprintf would box its operand and
// cost one more — and what the name tree, the log, the object and the graph
// keep per access: just over 3 in all.
func TestAccessRequestAllocs(t *testing.T) {
	s := server.New(server.Options{Objects: []string{"x"}})
	srvEnd, cliEnd := net.Pipe()
	s.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	access := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	access(500) // warm the scratch buffers and the first doublings
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	access(n)
	runtime.ReadMemStats(&after)
	perAccess := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocations per ACCESS request", perAccess)
	if perAccess > 3.5 {
		t.Fatalf("%.2f allocations per ACCESS request, want about 3 (4 with a formatted label)", perAccess)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
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
