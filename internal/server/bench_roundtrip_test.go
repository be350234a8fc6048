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

// benchmarkTx is the repository benchmark's transaction (bench/plan.go):
// four accesses, the second inside a subtransaction — 8 request frames.
func benchmarkTx(tx *client.Tx) error {
	for i, obj := range [...]string{"a", "b", "c", "d"} {
		if i == 1 {
			if _, err := tx.Child(); err != nil {
				return err
			}
		}
		if _, err := tx.Access(obj, spec.OpWrite, spec.Int(int64(i))); err != nil {
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

// BenchmarkClientRunTx measures one whole RunTx of the benchmark's shape,
// one client over loopback TCP, and reports what it costs in write(2)s on
// the client's side (the server's are the same number): 6, one per answer
// the body needs, against the 8 of a client that waits out every frame.
// allocs/op and B/op count both ends and the certifier behind them.
func BenchmarkClientRunTx(b *testing.B) {
	s := server.New(server.Options{Objects: []string{"a", "b", "c", "d"}})
	c, cli, _ := countedSession(b, s, false)
	if err := c.RunTx(1, benchmarkTx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	writes := cli.writes.Load()
	for i := 0; i < b.N; i++ {
		if err := c.RunTx(1, benchmarkTx); err != nil {
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
// keep per access: just under 4 in all.
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
	if perAccess > 4.5 {
		t.Fatalf("%.2f allocations per ACCESS request, want about 4 (5 with a formatted label)", perAccess)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
