package part_test

import (
	"context"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/core"
	"nestedsg/internal/part"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// TestPrimeSplitsBacklogPastBatchCap: Prime has a partition's whole backlog
// pending at once, and one batch holds at most wire.MaxEdgeBatch records —
// it used to ship the backlog as one batch and panic in the decoder. With
// the cap lowered, every partition must ship ceil(edges/cap) batches, only
// the last of which moves its bound, and compose the batch certificate.
func TestPrimeSplitsBacklogPastBatchCap(t *testing.T) {
	const batchCap = 8
	defer part.SetMaxBatch(batchCap)()

	tr, b := protocolBehavior(t, 5, 36)
	if n := core.Build(tr, b).NumEdges(); n < 4*batchCap {
		t.Fatalf("log has only %d edges; the cap of %d is not exercised", n, batchCap)
	}
	for _, parts := range []int{1, 2, 4} {
		lags := make([][]int, parts)
		c := part.New(part.Config{Partitions: parts, Tree: tr,
			ObserveLag: func(p, lag int) { lags[p] = append(lags[p], lag) }})
		c.Prime(b)
		for p, st := range c.PartStats() {
			want := int(st.EdgesDelivered+batchCap-1) / batchCap
			if want == 0 {
				want = 1
			}
			if len(lags[p]) != want {
				t.Fatalf("P=%d: partition %d shipped %d edges in %d batches, want %d",
					parts, p, st.EdgesDelivered, len(lags[p]), want)
			}
		}
		if parts > 1 {
			// Partition 0 primes first, while the others' bounds — and so
			// the watermark — are still 0: its lag is its own bound.
			last := len(lags[0]) - 1
			for i, lag := range lags[0] {
				want := 0
				if i == last {
					want = len(b)
				}
				if lag != want {
					t.Fatalf("P=%d: batch %d of %d moved partition 0's bound to %d, want %d",
						parts, i, last+1, lag, want)
				}
			}
		}
	}
	verifyDifferential(t, tr, b, 1, 2, 4)
}

// TestRecoverPrimesPastBatchCap: the same through the server — a WAL whose
// SG outgrows one batch recovers at CertPartitions = 2 with the audit green.
func TestRecoverPrimesPastBatchCap(t *testing.T) {
	opts := server.Options{WAL: server.NewMemDisk(), Objects: []string{"x", "y"}, CertPartitions: 2}
	s1, _, err := server.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential transactions store a chain — two edges each — so it takes
	// some forty of them to outgrow four batches.
	for i := 0; i < 40; i++ {
		if err := c.RunTx(5, func(tx *client.Tx) error {
			if _, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i))); err != nil {
				return err
			}
			_, err := tx.Access("y", spec.OpWrite, spec.Int(int64(i)))
			return err
		}); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	const batchCap = 16
	if n := s1.Final().Snapshot.NumEdges(); n < 4*batchCap {
		t.Fatalf("log has only %d edges; the cap of %d is not exercised", n, batchCap)
	}

	defer part.SetMaxBatch(batchCap)()
	s2, rep, err := server.Recover(opts)
	if err != nil {
		t.Fatalf("Recover past the batch cap: %v", err)
	}
	if !rep.AuditOK || rep.DurableEvents != len(s1.Log()) {
		t.Fatalf("recovery report %+v, want audit ok over %d events", rep, len(s1.Log()))
	}
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if f := s2.Final(); !f.Batch.OK || !f.Match {
		t.Fatalf("recovered server's final certificate: batch ok %v, match %v", f.Batch.OK, f.Match)
	}
}
