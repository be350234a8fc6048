//go:build !race

// The race detector instruments channel operations and file reads with
// allocations of its own, so these counts hold in ordinary builds; the
// build tag keeps `go test -race` green.

package server

import (
	"testing"
	"time"
)

// TestSettleRoundAllocs: the settle loop allocates nothing once its settler
// exists, the dynamic twin of the //sgvet:hotpath gate on settle and
// settler.round. With a peer's top open and nothing appended, each settle
// runs its two quiet rounds and ends.
func TestSettleRoundAllocs(t *testing.T) {
	w, err := newTestWalWriter(NewMemDisk(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.srv.openTops.Store(1)
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.syncTimes = [2]time.Duration{time.Hour, time.Hour}
	w.settle() // makes the settler
	if w.rounds.Load() != 2 {
		t.Fatalf("a quiet settle ran %d rounds, want 2", w.rounds.Load())
	}
	if n := testing.AllocsPerRun(100, w.settle); n != 0 {
		t.Fatalf("settle allocates %.1f times per call, want 0", n)
	}
	if w.rounds.Load() != 2*102 {
		t.Fatalf("%d rounds over 102 quiet settles, want 2 each", w.rounds.Load())
	}
}
