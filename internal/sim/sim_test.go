package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nestedsg/internal/server"
	"nestedsg/internal/sim"
)

// seeds caps the long soak; `make sim-soak` raises it to 64.
var seedsFlag = flag.Int("seeds", 16, "number of seeds for TestSimLongSoak")

// backends lists every server object backend: TestSimBackendFaultMatrix
// and TestSimBackendDeterministicReplay run all three.
var backends = []string{"moss", "undolog", "mvto"}

// lockers are the two backends whose algorithms the paper proves correct,
// Moss locking and undo logging; TestSimFaultMatrix, the soak and the
// fault-free run cycle through them.
var lockers = backends[:2]

// backendCfg is the base of every fault-matrix and replay run. Each
// backend carries read-only traffic under the same faults: mvto serves it
// from lock-free snapshots, moss and undolog as ordinary locking
// transactions.
func backendCfg(backend string, seed uint64) sim.Config {
	return sim.Config{Seed: seed, Backend: backend, ROPermille: 250}
}

// faultMatrix runs each backend × every fault class as a named standalone
// subtest, each of the three seeds from firstSeed a full
// certify-crash-recover-drain cycle. The runs are deterministic: a failure
// message always carries the Config that reproduces it.
func faultMatrix(t *testing.T, backends []string, firstSeed uint64) {
	const seeds = 3
	for _, backend := range backends {
		for _, class := range sim.AllFaults() {
			t.Run(fmt.Sprintf("%s/%s", backend, class), func(t *testing.T) {
				t.Parallel()
				injected, recoveries, tornCrashes, zeroTailCrashes, certParks, midPipeline, roBeforeCrash := 0, 0, 0, 0, 0, 0, 0
				for seed := firstSeed; seed < firstSeed+seeds; seed++ {
					cfg := backendCfg(backend, seed)
					cfg.Steps = 160
					cfg.Faults = []sim.FaultClass{class}
					cfg.FaultPermille = 200
					rep, err := sim.Run(cfg)
					if err != nil {
						writeFailureArtifact(t, seed, backend, err, rep)
						t.Fatalf("seed %d: %v\nreproduce: sim.Run(%+v)", seed, err, cfg)
					}
					// On the locking backends every seed injects every
					// class. mvto's restart discipline makes a parked
					// session, which clock-storm needs, rare, so its cells
					// are held to the aggregate below.
					if backend != "mvto" && rep.Faults[class] == 0 {
						t.Errorf("seed %d: fault %s never injected: %s", seed, class, rep.Summary())
					}
					injected += rep.Faults[class]
					recoveries += rep.Recoveries
					tornCrashes += rep.TornCrashes
					zeroTailCrashes += rep.ZeroTailCrashes
					certParks += rep.CertParks
					midPipeline += rep.MidPipeline
					roBeforeCrash += rep.ROSetsBeforeCrash
				}
				if injected == 0 {
					t.Errorf("fault %s never injected across %d seeds", class, seeds)
				}
				// A disk that never held an unsynced byte at a crash would
				// leave every torn-tail recovery path unexercised and this
				// matrix green.
				if class == sim.FaultCrash && tornCrashes == 0 {
					t.Errorf("no crash over %d seeds kept a torn tail: nothing was unsynced at any crash point", seeds)
				}
				// A killed DirDisk leaves zeros after its records, and
				// MemDisk.Crash pads every image but an empty or
				// page-aligned one so. Without the padding only a torn tail
				// that happens to end in zero bytes would meet this path.
				if class == sim.FaultCrash && 2*zeroTailCrashes <= recoveries {
					t.Errorf("%d of %d recoveries over %d seeds met a zero tail, want most", zeroTailCrashes, recoveries, seeds)
				}
				// Only a top-level commit waits for the watermark; a stall
				// that holds up none of them tests nothing.
				if class == sim.FaultCertStall && certParks == 0 {
					t.Errorf("no top-level commit over %d seeds parked on a certifier stall", seeds)
				}
				// The client puts writes, CHILDs and COMMITs ahead of their
				// answers; a drop or crash that never meets one owed leaves
				// that state out of the fault model.
				if (class == sim.FaultDrop || class == sim.FaultCrash) && midPipeline == 0 {
					t.Errorf("no %s over %d seeds hit a client owing answers", class, seeds)
				}
				// mvto serves read-only transactions from snapshots; the
				// read sets an incarnation recorded before its crash are
				// held to the final stitched log, and without any that
				// check is vacuous.
				if backend == "mvto" && class == sim.FaultCrash && roBeforeCrash == 0 {
					t.Errorf("no read-only read set over %d seeds was recorded before a crash", seeds)
				}
			})
		}
	}
}

// TestSimFaultMatrix runs every fault class against the two proven
// backends on seeds 1..3; TestSimBackendFaultMatrix covers seeds 4..6 and
// adds mvto, so no cell runs twice.
func TestSimFaultMatrix(t *testing.T) {
	faultMatrix(t, lockers, 1)
}

// TestSimDeadlockFaultMakesVictims: FaultDeadlock is the one class that
// closes a waits-for cycle on purpose, so its injections must turn into
// deadlock victims. Two sessions on five objects, seeds 1..8: without
// faults the seeds give 10 victims; with the fault, 114 injections give 61.
// An injection whose crossing writes go to one object instead makes no
// cycle of its own — about one victim per four injections, from the extra
// contention — so the bar is one victim per two injections.
func TestSimDeadlockFaultMakesVictims(t *testing.T) {
	var injected int
	var victims, baseline int64
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := sim.Config{Seed: seed, Steps: 220, Sessions: 2, Objects: 5}
		rep, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("no faults: %v\nreproduce: sim.Run(%+v)", err, cfg)
		}
		baseline += rep.DeadlockAborts
		cfg.Faults = []sim.FaultClass{sim.FaultDeadlock}
		cfg.FaultPermille = 250
		rep, err = sim.Run(cfg)
		if err != nil {
			t.Fatalf("%v\nreproduce: sim.Run(%+v)", err, cfg)
		}
		injected += rep.Faults[sim.FaultDeadlock]
		victims += rep.DeadlockAborts
	}
	t.Logf("%d injections, %d deadlock victims; %d victims without faults", injected, victims, baseline)
	if injected == 0 || victims == 0 || 2*victims < int64(injected) {
		t.Fatalf("%d injections made %d deadlock victims, want at least one per two", injected, victims)
	}
}

// TestSimNoFaults: the fault-free simulator is a plain concurrency
// exerciser and must still certify.
func TestSimNoFaults(t *testing.T) {
	for _, backend := range lockers {
		rep, err := sim.Run(sim.Config{Seed: 7, Steps: 200, Backend: backend})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if rep.TopCommits == 0 {
			t.Fatalf("%s: no transaction ever committed: %s", backend, rep.Summary())
		}
	}
}

// walBytes concatenates the final disk's segments in name order — the byte
// stream recovery would replay.
func walBytes(t *testing.T, d *server.MemDisk) []byte {
	t.Helper()
	if d == nil {
		return nil
	}
	names, err := d.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names {
		seg, err := d.ReadSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, seg...)
	}
	return all
}

// checkReplay runs cfg twice and demands the identical report,
// byte-identical event trace, byte-identical WAL contents and
// byte-identical certificate, fault storms, crashes, torn tails, restarts
// and read-only traffic included.
func checkReplay(t *testing.T, cfg sim.Config) {
	t.Helper()
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
	if wa, wb := walBytes(t, a.FinalDisk), walBytes(t, b.FinalDisk); !bytes.Equal(wa, wb) {
		t.Fatalf("WALs diverge for the same seed (%d vs %d bytes)", len(wa), len(wb))
	}
	if a.CertDOT == "" || a.CertDOT != b.CertDOT {
		t.Fatalf("certificates diverge for the same seed")
	}
	if a.Recoveries == 0 {
		t.Fatalf("determinism run never crashed — raise FaultPermille: %s", a.Summary())
	}
}

func replayCfg(backend string, seed uint64) sim.Config {
	cfg := backendCfg(backend, seed)
	cfg.Steps = 250
	cfg.Faults = sim.AllFaults()
	cfg.FaultPermille = 120
	return cfg
}

// TestSimDeterministicReplay: the whole point of the simulator — the same
// seed replays to the identical run, down to the WAL bytes and the
// certificate. TestSimBackendDeterministicReplay repeats the check per
// backend on another seed.
func TestSimDeterministicReplay(t *testing.T) {
	checkReplay(t, replayCfg("moss", 42))
}

// TestSimLongSoak sweeps many seeds with every fault class enabled. Any
// failure prints the seed; with SIM_FAILURE_DIR set, it also writes a
// per-seed artifact so CI can upload the repro.
func TestSimLongSoak(t *testing.T) {
	n := *seedsFlag
	if testing.Short() && n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		backend := lockers[i%len(lockers)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, backend), func(t *testing.T) {
			t.Parallel()
			cfg := sim.Config{
				Seed:          seed,
				Steps:         220,
				Backend:       backend,
				Faults:        sim.AllFaults(),
				FaultPermille: 80,
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				writeFailureArtifact(t, seed, backend, err, rep)
				t.Fatalf("seed %d (%s): %v", seed, backend, err)
			}
		})
	}
}

// writeFailureArtifact records a failing seed under SIM_FAILURE_DIR (when
// set) so the CI workflow can upload it.
func writeFailureArtifact(t *testing.T, seed uint64, backend string, err error, rep *sim.Report) {
	dir := os.Getenv("SIM_FAILURE_DIR")
	if dir == "" {
		return
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		t.Logf("artifact dir: %v", mkErr)
		return
	}
	body := fmt.Sprintf("seed: %d\nbackend: %s\nerror: %v\n", seed, backend, err)
	if rep != nil {
		body += "report: " + rep.Summary() + "\n"
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d-%s.txt", seed, backend))
	if wErr := os.WriteFile(path, []byte(body), 0o644); wErr != nil {
		t.Logf("artifact write: %v", wErr)
	} else {
		t.Logf("failure artifact written to %s", path)
	}
}

// TestSimE18FaultSweep is experiment E18: abort rate and recovery repair
// work as the fault rate sweeps 0%, 1%, 5%, 20%. Certificate agreement is
// implied by every run returning nil (each crash recovery and the final
// drain audit online-vs-batch byte equality).
func TestSimE18FaultSweep(t *testing.T) {
	steps := 220
	seedsPer := 4
	if testing.Short() {
		steps, seedsPer = 120, 2
	}
	t.Logf("%-8s %8s %8s %8s %10s %8s %8s", "fault%", "begins", "commits", "aborts", "abortrate", "crashes", "orphans")
	for _, permille := range []int{0, 10, 50, 200} {
		var begins, commits, aborts, crashes, orphans int
		for i := 0; i < seedsPer; i++ {
			cfg := sim.Config{
				Seed:          uint64(9000 + 100*permille + i),
				Steps:         steps,
				Faults:        sim.AllFaults(),
				FaultPermille: permille,
			}
			if permille == 0 {
				cfg.Faults = nil
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("permille=%d seed=%d: %v", permille, cfg.Seed, err)
			}
			begins += rep.Begins
			commits += rep.TopCommits
			aborts += rep.TxAborts
			crashes += rep.Recoveries
			orphans += rep.OrphanTops
		}
		rate := 0.0
		if begins > 0 {
			rate = float64(aborts) / float64(begins)
		}
		t.Logf("%-8.1f %8d %8d %8d %9.1f%% %8d %8d",
			float64(permille)/10, begins, commits, aborts, 100*rate, crashes, orphans)
	}
}
