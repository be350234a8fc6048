package part_test

import (
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/part"
)

// TestPrimeSplitsBacklogPastBatchCap: Prime has a partition's whole backlog
// pending at once, and one batch holds at most wire.MaxEdgeBatch records —
// it used to ship the backlog as one batch and panic in the decoder. With
// the cap lowered, every partition must ship full batches that claim no
// events, then one last batch of at most the cap that carries the bound,
// and compose the batch certificate.
func TestPrimeSplitsBacklogPastBatchCap(t *testing.T) {
	const batchCap = 8
	type batch struct{ edges, upTo int }
	var got [][]batch
	defer part.SetMaxBatch(batchCap, func(p, edges, upTo int) {
		got[p] = append(got[p], batch{edges, upTo})
	})()

	tr, b := protocolBehavior(t, 5, 36)
	if n := core.Build(tr, b).NumEdges(); n < 4*batchCap {
		t.Fatalf("log has only %d edges; the cap of %d is not exercised", n, batchCap)
	}
	for _, parts := range []int{1, 2, 4} {
		got = make([][]batch, parts)
		c := part.New(part.Config{Partitions: parts, Tree: tr})
		c.Prime(b)
		split := false
		for p, bs := range got {
			if len(bs) == 0 {
				t.Fatalf("P=%d: partition %d shipped no batch", parts, p)
			}
			last := len(bs) - 1
			for i, x := range bs[:last] {
				if x.edges != batchCap || x.upTo != 0 {
					t.Fatalf("P=%d: partition %d batch %d of %d carries %d edges and bound %d, want %d and 0",
						parts, p, i, len(bs), x.edges, x.upTo, batchCap)
				}
			}
			// A split backlog's last batch holds its remainder: 1..cap edges.
			if x := bs[last]; x.edges > batchCap || last > 0 && x.edges == 0 || x.upTo != len(b) {
				t.Fatalf("P=%d: partition %d's last batch of %d carries %d edges and bound %d, want at most %d and %d",
					parts, p, len(bs), x.edges, x.upTo, batchCap, len(b))
			}
			split = split || last > 0
		}
		if !split {
			t.Fatalf("P=%d: no partition split its backlog", parts)
		}
	}
	verifyDifferential(t, tr, b, 1, 2, 4)
}
