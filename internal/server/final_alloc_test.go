//go:build !race

// The race detector instruments allocations, so the byte counts below only
// hold in ordinary builds.

package server_test

import (
	"runtime"
	"testing"

	"nestedsg/internal/server"
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

// TestRecoverBytesPerEvent bounds what a whole Recover — scan, replay,
// stitch, priming and Final's audit — allocates per durable event, on the
// WAL of one young life (youngRecoveryOptions). Decoding each record once,
// straight into the name tree and the log's records, and checking,
// replaying and certifying the prefix in one pass, it measured 189 bytes
// per event; a recovery that gathered the WAL's events into a Behavior and
// walked it once per check took 321.
func TestRecoverBytesPerEvent(t *testing.T) {
	opts := youngRecoveryOptions(t)
	const runs = 5
	var before, after runtime.MemStats
	var events int
	runtime.ReadMemStats(&before)
	for range runs {
		s, rep, err := server.Recover(opts)
		if err != nil {
			t.Fatal(err)
		}
		events = rep.DurableEvents
		s.Kill()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(events)
	t.Logf("Recover allocates %.1f bytes per event", perEvent)
	if perEvent > 210 {
		t.Errorf("Recover allocates %.1f bytes per event, want at most 210", perEvent)
	}
}
