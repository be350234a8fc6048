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
// at the installed stall front — batching may never silently carry the
// certifier across a stall — and pass the full window through otherwise.
func TestCertBatchCutsAtStall(t *testing.T) {
	certStall := &stallState{from: 10, released: make(chan struct{})}
	cases := []struct {
		name       string
		stall      *stallState
		gen        uint64
		index, max int
		want       int
	}{
		{name: "no stall", index: 0, max: 16, want: 16},
		{name: "cut at the stall", stall: certStall, index: 4, max: 16, want: 6},
		{name: "window ends before the stall", stall: certStall, index: 4, max: 3, want: 3},
		// At or past the stall CertApply blocks first, so the size hook
		// just passes the window through.
		{name: "at the stall", stall: certStall, index: 10, max: 16, want: 16},
		// A stale generation (its server was crashed) ignores the stall.
		{name: "stale generation", stall: certStall, gen: 7, index: 4, max: 16, want: 16},
	}
	for _, c := range cases {
		s := &sim{stall: c.stall}
		h := &simHooks{s: s, gen: c.gen}
		if got := h.CertBatch(c.index, c.max); got != c.want {
			t.Errorf("%s: CertBatch(%d, %d) = %d, want %d", c.name, c.index, c.max, got, c.want)
		}
	}
}
