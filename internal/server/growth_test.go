package server_test

import (
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// TestSequentialLifeEdgesStayLinear is the guard against the quadratic
// precedes fan-in coming back: one session running n top-level transactions
// one after the other yields a chain under T0 and one edge between the two
// accesses inside each transaction — the paper's all-pairs relation has
// n(n−1)/2 under T0 alone, two million here. The reads do not conflict, so
// every edge counted is a precedes edge.
func TestSequentialLifeEdgesStayLinear(t *testing.T) {
	const n = 2000
	// P1 names the one certifier the server runs.
	t.Run("P1", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x", "y"}})
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.RunTx(1, func(tx *client.Tx) error {
				if _, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil {
					return err
				}
				_, err := tx.Access("y", spec.OpRead, spec.Nil)
				return err
			}); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
		c.Close()
		shutdownAndVerify(t, s)
		if got := s.Metrics().TopCommits.Load(); got != n {
			t.Fatalf("%d top-level commits, want %d", got, n)
		}
		edges, ok := s.MetricsSnapshot()["sg_edges"].(int64)
		if !ok {
			t.Fatalf("sg_edges = %v", s.MetricsSnapshot()["sg_edges"])
		}
		if edges < n-1 || edges > 2*n {
			t.Fatalf("sg_edges = %d after %d sequential transactions, want the chain's %d plus one per transaction",
				edges, n, n-1)
		}
	})
}

// TestOneRegisterLifeEdgesStayConstant is the guard against the quadratic
// conflict scan coming back: one session running n top-level transactions
// one after the other on one register, four writes to every read. The
// paper's conflict(β) relates each access to every earlier conflicting one
// — the last hundred transactions of this life alone would add some ninety
// thousand pairs — while the conflict frontier relates it to the accesses
// back to the last write, so the hundredth hundred costs what the first did.
func TestOneRegisterLifeEdgesStayConstant(t *testing.T) {
	const n, window = 1000, 100
	// P1 names the one certifier the server runs.
	t.Run("P1", func(t *testing.T) {
		s := startServer(t, server.Options{Objects: []string{"x"}})
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		edges := func() int64 {
			e, ok := s.MetricsSnapshot()["sg_edges"].(int64)
			if !ok {
				t.Fatalf("sg_edges = %v", s.MetricsSnapshot()["sg_edges"])
			}
			return e
		}
		var first, beforeLast int64
		for i := 0; i < n; i++ {
			if err := c.RunTx(1, func(tx *client.Tx) error {
				if i%5 == 4 {
					_, err := tx.Access("x", spec.OpRead, spec.Nil)
					return err
				}
				_, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i)))
				return err
			}); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
			switch i + 1 {
			case window:
				first = edges()
			case n - window:
				beforeLast = edges()
			}
		}
		last := edges() - beforeLast
		c.Close()
		shutdownAndVerify(t, s)
		// The two windows run the same hundred operations; the first
		// transaction of the life has no predecessor to take edges from.
		if first < window || last > first+first/10 {
			t.Fatalf("sg_edges grew by %d over the first %d transactions and by %d over the last %d",
				first, window, last, window)
		}
	})
}
