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

// TestCertBatchCutsAtStall: CertApply must bound a certifier run at the
// installed stall front — batching may never silently carry the certifier
// across a stall — pass the full window through otherwise, and block a
// run that starts at the front until the driver lifts the stall.
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
		// A stale generation (its server was crashed) ignores the stall.
		{name: "stale generation", stall: certStall, gen: 7, index: 4, max: 16, want: 16},
	}
	for _, c := range cases {
		s := &sim{stall: c.stall}
		h := &simHooks{s: s, gen: c.gen}
		if got := h.CertApply(c.index, c.max); got != c.want {
			t.Errorf("%s: CertApply(%d, %d) = %d, want %d", c.name, c.index, c.max, got, c.want)
		}
	}

	// At the stall front the run blocks until the stall lifts, then
	// passes the whole window.
	s := &sim{stall: certStall}
	h := &simHooks{s: s}
	got := make(chan int, 1)
	go func() { got <- h.CertApply(10, 16) }()
	select {
	case n := <-got:
		t.Fatalf("CertApply at the stall front returned %d without waiting", n)
	case <-time.After(20 * time.Millisecond):
	}
	s.mu.Lock()
	s.stall = nil
	s.mu.Unlock()
	close(certStall.released)
	if n := <-got; n != 16 {
		t.Fatalf("CertApply after the stall lifted = %d, want 16", n)
	}
}
