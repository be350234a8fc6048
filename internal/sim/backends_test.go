package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nestedsg/internal/sim"
)

// TestSimBackendFaultMatrix: every backend × every fault class on seeds
// 4..6, the seeds TestSimFaultMatrix leaves out.
func TestSimBackendFaultMatrix(t *testing.T) {
	faultMatrix(t, backends, 4)
}

// TestSimBackendDeterministicReplay: per backend, seed 43 replays to the
// identical run (TestSimDeterministicReplay holds moss on seed 42).
func TestSimBackendDeterministicReplay(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			checkReplay(t, replayCfg(backend, 43))
		})
	}
}

// stateString renders a report's final committed register state
// deterministically for byte comparison.
func stateString(rep *sim.Report) string {
	labels := make([]string, 0, len(rep.FinalState))
	for l := range rep.FinalState {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%s\n", l, rep.FinalState[l])
	}
	return b.String()
}

// TestSimBackendDifferential drives moss and undolog with the identical
// seed and fault schedule. Their grant conditions are provably equivalent
// for registers (undolog logs inverse operations instead of deferring
// writes but admits exactly the Moss lock set), so the whole runs must
// agree byte for byte: same trace, same serialization certificate, same
// final committed state.
func TestSimBackendDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var ref *sim.Report
			for _, backend := range lockers {
				cfg := sim.Config{
					Seed:          seed,
					Steps:         200,
					Backend:       backend,
					Faults:        sim.AllFaults(),
					FaultPermille: 100,
				}
				rep, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if ref == nil {
					ref = rep
					continue
				}
				if rep.Summary() != ref.Summary() {
					t.Errorf("%s report differs from moss:\n  %s\n  %s", backend, ref.Summary(), rep.Summary())
				}
				if !bytes.Equal(rep.Trace, ref.Trace) {
					t.Errorf("%s trace differs from moss (%d vs %d bytes)", backend, len(rep.Trace), len(ref.Trace))
				}
				if rep.CertDOT != ref.CertDOT {
					t.Errorf("%s certificate differs from moss", backend)
				}
				if stateString(rep) != stateString(ref) {
					t.Errorf("%s final state differs from moss:\n%svs\n%s", backend, stateString(ref), stateString(rep))
				}
			}
		})
	}
}

// TestSimMVTOReadOnly is the snapshot-isolation property test: under the
// mvto backend, read-only transactions never park on a lock, are never
// aborted by the server, and every completed read set matches the
// committed state of some certified log prefix — all three enforced
// inside sim.Run (the driver errors on an RO park or RO abort, and
// finish() replays the log to validate the read sets). The loop both
// proves RO traffic actually flowed and soaks the property across fault
// schedules, crashes included.
func TestSimMVTOReadOnly(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	totalRO, totalReads := 0, 0
	for i := 0; i < seeds; i++ {
		seed := uint64(3000 + i)
		cfg := sim.Config{
			Seed:       seed,
			Steps:      240,
			Backend:    "mvto",
			ROPermille: 450,
		}
		if i%2 == 1 {
			cfg.Faults = sim.AllFaults()
			cfg.FaultPermille = 100
		}
		rep, err := sim.Run(cfg)
		if err != nil {
			writeFailureArtifact(t, seed, "mvto-ro", err, rep)
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalRO += rep.ROBegins
		totalReads += rep.ROReads
	}
	if totalRO == 0 || totalReads == 0 {
		t.Fatalf("property test exercised no read-only traffic (ro=%d reads=%d)", totalRO, totalReads)
	}
	t.Logf("validated %d read-only transactions, %d snapshot reads", totalRO, totalReads)
}

// FuzzBackendDifferential runs the moss-vs-undolog differential over
// fuzzed seeds: for any seed, both backends must produce byte-identical
// traces, certificates and final committed snapshots.
func FuzzBackendDifferential(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		var ref *sim.Report
		for _, backend := range lockers {
			cfg := sim.Config{
				Seed:          seed,
				Steps:         140,
				Backend:       backend,
				Faults:        sim.AllFaults(),
				FaultPermille: 100,
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			if ref == nil {
				ref = rep
				continue
			}
			if !bytes.Equal(rep.Trace, ref.Trace) {
				t.Fatalf("seed %d: undolog trace differs from moss (%d vs %d bytes)", seed, len(rep.Trace), len(ref.Trace))
			}
			if rep.CertDOT != ref.CertDOT {
				t.Fatalf("seed %d: undolog certificate differs from moss", seed)
			}
			if stateString(rep) != stateString(ref) {
				t.Fatalf("seed %d: final snapshots differ:\n%svs\n%s", seed, stateString(ref), stateString(rep))
			}
		}
	})
}

// fuzzSeeds is the committed seed corpus for FuzzBackendDifferential.
// Seed 1384 crashes early, so later sessions reuse the ids of sessions the
// first incarnation retired; a drop must still wait for its own session.
func fuzzSeeds() []uint64 {
	return []uint64{1, 7, 42, 1234, 1384, 99991}
}

// TestRegenerateBackendFuzzCorpus rewrites the committed seed corpus for
// FuzzBackendDifferential when UPDATE_FUZZ_CORPUS=1; otherwise it checks
// the committed files are current.
func TestRegenerateBackendFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBackendDifferential")
	for _, seed := range fuzzSeeds() {
		content := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", seed)
		path := filepath.Join(dir, fmt.Sprintf("seed_%d", seed))
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus missing (run with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != content {
			t.Fatalf("seed corpus seed_%d is stale (run with UPDATE_FUZZ_CORPUS=1)", seed)
		}
	}
}
