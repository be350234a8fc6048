//go:build !race

// Allocation-regression tests for the partitioned certifier's apply
// path. The race detector instruments allocations, so the zero-alloc
// assertions only hold in ordinary builds; the build tag keeps
// `go test -race` green.

package part_test

import (
	"testing"

	"nestedsg/internal/part"
)

// TestCertifierResetSteadyStateAllocs pins the whole partitioned apply
// path — ownership routing, per-partition streaming and edge
// composition — at zero steady-state allocations: after
// one warm-up pass, Reset + Prime over the same tree must not allocate.
func TestCertifierResetSteadyStateAllocs(t *testing.T) {
	tr, b := protocolBehavior(t, 19, 57)
	c := part.New(part.Config{Partitions: 4, Tree: tr})
	c.Prime(b) // warm up: grow every backing array once
	feed := func() {
		c.Reset()
		c.Prime(b)
	}
	feed()
	if n := testing.AllocsPerRun(20, feed); n > 0 {
		t.Errorf("partitioned Reset+Prime allocates %.1f/op after warm-up, want 0", n)
	}
}

// BenchmarkPartitionedApply measures the per-event cost of the
// partitioned apply path, end to end through the composer. The benchdiff
// gate holds its allocs/op at zero.
func BenchmarkPartitionedApply(b *testing.B) {
	tr, tb := protocolBehavior(b, 19, 57)
	c := part.New(part.Config{Partitions: 4, Tree: tr})
	c.Prime(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Prime(tb)
	}
	b.StopTimer()
	events := int64(len(tb))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
}
