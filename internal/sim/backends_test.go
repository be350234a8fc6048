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

// Backends is the full object-backend surface the server exposes through
// -backend; the matrix below runs every one of them through every fault
// class. mvto additionally carries read-only snapshot traffic, so its
// lock-free path is exercised under the same faults.
var backends = []string{"moss", "undolog", "mvto", "replica"}

func backendCfg(backend string, seed uint64) sim.Config {
	cfg := sim.Config{Seed: seed, Backend: backend}
	if backend == "mvto" {
		cfg.ROPermille = 250
	}
	return cfg
}

// TestSimBackendFaultMatrix is the headline matrix: every backend ×
// every fault class, each seed a full certify-crash-recover-drain cycle.
// Any failure reproduces from the printed Config alone.
func TestSimBackendFaultMatrix(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 2
	}
	for _, backend := range backends {
		for _, class := range sim.AllFaults() {
			backend, class := backend, class
			t.Run(fmt.Sprintf("%s/%s", backend, class), func(t *testing.T) {
				t.Parallel()
				injected, certParks := 0, 0
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					cfg := backendCfg(backend, seed)
					cfg.Steps = 160
					cfg.Faults = []sim.FaultClass{class}
					cfg.FaultPermille = 200
					rep, err := sim.Run(cfg)
					if err != nil {
						writeFailureArtifact(t, seed, backend, err, rep)
						t.Fatalf("seed %d: %v\nreproduce: sim.Run(%+v)", seed, err, cfg)
					}
					injected += rep.Faults[class]
					certParks += rep.CertParks
				}
				// Aggregated across seeds: a class can be inapplicable on
				// one seed's schedule (e.g. clock-storm needs a parked
				// session, which mvto's restart discipline makes rare),
				// but the cell as a whole must exercise its fault.
				if injected == 0 {
					t.Errorf("fault %s never injected across %d seeds", class, seeds)
				}
				if class == sim.FaultCertStall && certParks == 0 {
					t.Errorf("no top-level commit across %d seeds parked on a certifier stall", seeds)
				}
			})
		}
	}
}

// TestSimBackendDeterministicReplay: per backend, the same seed replays
// to the identical report, byte-identical trace, and byte-identical
// certificate — crashes, restarts and read-only traffic included.
func TestSimBackendDeterministicReplay(t *testing.T) {
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			cfg := backendCfg(backend, 42)
			cfg.Steps = 250
			cfg.Faults = sim.AllFaults()
			cfg.FaultPermille = 120
			a, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Summary() != b.Summary() {
				t.Fatalf("reports diverge:\n  %s\n  %s", a.Summary(), b.Summary())
			}
			if !bytes.Equal(a.Trace, b.Trace) {
				t.Fatalf("traces diverge for the same seed (%d vs %d bytes)", len(a.Trace), len(b.Trace))
			}
			if a.CertDOT == "" || a.CertDOT != b.CertDOT {
				t.Fatalf("certificates diverge for the same seed")
			}
			if a.Recoveries == 0 {
				t.Fatalf("determinism run never crashed — raise FaultPermille: %s", a.Summary())
			}
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

// TestSimBackendDifferential drives moss, undolog and replica with the
// identical seed and fault schedule. Their grant conditions are provably
// equivalent for registers (undolog logs inverse operations instead of
// deferring writes but admits exactly the Moss lock set; replica runs
// Moss admission over quorum copies with the failure process disabled),
// so the whole runs must agree byte for byte: same trace, same
// serialization certificate, same final committed state.
func TestSimBackendDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var ref *sim.Report
			for _, backend := range []string{"moss", "undolog", "replica"} {
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

// TestSimReplicaTornInstall is the torn-write / partial-quorum recovery
// test: with the replica backend and crash faults only, every recovery
// replays the stitched log through fresh quorum copies and then re-proves
// the quorum-intersection audit (sim.boot calls Server.AuditObjects). A
// commit whose WAL record was torn is aborted as an orphan — its install
// never reaches any copy — and a surviving commit reinstalls into a full
// write quorum, so no crash can leave the latest version on a minority.
func TestSimReplicaTornInstall(t *testing.T) {
	crashes, torn := 0, int64(0)
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := sim.Config{
			Seed:          seed,
			Steps:         200,
			Backend:       "replica",
			Faults:        []sim.FaultClass{sim.FaultCrash},
			FaultPermille: 120,
		}
		rep, err := sim.Run(cfg)
		if err != nil {
			writeFailureArtifact(t, seed, "replica-torn", err, rep)
			t.Fatalf("seed %d: %v", seed, err)
		}
		crashes += rep.Recoveries
		torn += rep.TornBytes
	}
	if crashes == 0 {
		t.Fatal("no crash ever injected — the torn-install path was not exercised")
	}
	t.Logf("audited %d crash recoveries (%d torn bytes) under the replica backend", crashes, torn)
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
		for _, backend := range []string{"moss", "undolog"} {
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
func fuzzSeeds() []uint64 {
	return []uint64{1, 7, 42, 1234, 99991}
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
