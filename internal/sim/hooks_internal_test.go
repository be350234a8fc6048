package sim

import (
	"testing"
	"time"
)

// TestDrainWaitAdvancesVirtualClock: DrainWait must cost virtual time, not
// wall time — the server's drain poll and accept-retry backoff run on the
// simulated clock so seeded runs stay deterministic and fast.
func TestDrainWaitAdvancesVirtualClock(t *testing.T) {
	s := &sim{}
	h := &simHooks{s: s}
	start := time.Now()
	h.DrainWait(10 * time.Second)
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("DrainWait(10s) slept %v of wall time", wall)
	}
	if got := s.clock.Load(); got != int64(10*time.Second) {
		t.Fatalf("virtual clock advanced by %d, want %d", got, int64(10*time.Second))
	}
	if got := h.Now().UnixNano(); got != int64(10*time.Second) {
		t.Fatalf("Now() = %d after DrainWait, want %d", got, int64(10*time.Second))
	}
}

// TestCertBatchCutsAtStall: the batch-size hook must bound a certifier run
// at the nearest installed stall front — batching may never silently carry
// the certifier across a stall — and pass the full window through
// otherwise. A certifier stall cuts every partition (the single certifier
// is partition 0); a partition stall cuts only its own partition.
func TestCertBatchCutsAtStall(t *testing.T) {
	certStall := &stallState{from: 10, released: make(chan struct{})}
	partStall := &partStallState{part: 2, from: 7, released: make(chan struct{})}
	cases := []struct {
		name             string
		stall            *stallState
		pstall           *partStallState
		gen              uint64
		part, index, max int
		want             int
	}{
		{name: "no stall", part: 0, index: 0, max: 16, want: 16},
		{name: "cut at the stall", stall: certStall, part: 0, index: 4, max: 16, want: 6},
		{name: "cert stall cuts every partition", stall: certStall, part: 3, index: 4, max: 16, want: 6},
		{name: "window ends before the stall", stall: certStall, part: 0, index: 4, max: 3, want: 3},
		// At or past the stall CertApply blocks first, so the size hook
		// just passes the window through.
		{name: "at the stall", stall: certStall, part: 0, index: 10, max: 16, want: 16},
		// A stale generation (its server was crashed) ignores the stall.
		{name: "stale generation", stall: certStall, gen: 7, part: 0, index: 4, max: 16, want: 16},
		{name: "partition stall cuts its partition", pstall: partStall, part: 2, index: 4, max: 16, want: 3},
		{name: "partition stall spares the others", pstall: partStall, part: 1, index: 4, max: 16, want: 16},
		{name: "nearest of two fronts", stall: certStall, pstall: partStall, part: 2, index: 4, max: 16, want: 3},
	}
	for _, c := range cases {
		s := &sim{stall: c.stall, pstall: c.pstall}
		h := &simHooks{s: s, gen: c.gen}
		if got := h.CertBatch(c.part, c.index, c.max); got != c.want {
			t.Errorf("%s: CertBatch(%d, %d, %d) = %d, want %d", c.name, c.part, c.index, c.max, got, c.want)
		}
	}
}
