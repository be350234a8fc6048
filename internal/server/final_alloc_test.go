//go:build !race

// The race detector instruments allocations, so the byte counts below only
// hold in ordinary builds.

package server_test

import (
	"runtime"
	"testing"
)

// TestFinalBytesPerEvent bounds what the end-of-life audit allocates per
// event of the log it certifies, on drainedYoungServer. Final reads the
// log in place and presizes every array of the batch construction from
// the online engine's counts; it measured 70 bytes per event, where a Final
// that copied the log into a Behavior, regrew its arrays by appending and
// sorted by comparison took 176.
func TestFinalBytesPerEvent(t *testing.T) {
	s := drainedYoungServer(t)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if f := s.Final(); !f.Match {
			t.Fatalf("audit diverged:\n%s", f.Summary)
		}
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(s.LogLen())
	t.Logf("Final allocates %.1f bytes per event", perEvent)
	if perEvent > 80 {
		t.Errorf("Final allocates %.1f bytes per event, want at most 80", perEvent)
	}
}
