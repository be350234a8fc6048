package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"nestedsg/internal/sim"
)

// TestSimPartitionCountInvariance: the certifier partition count is a
// pure concurrency knob. The composed certificate is byte-identical to
// the batch check at any P (every run's final drain and every crash
// recovery audit that), and under the driver's serialized schedule the
// same seed must produce an identical summary, a byte-identical final
// trace AND byte-identical WAL contents at 1, 2 and 8 partitions —
// crashes, torn tails, certifier stalls and cross-partition deadlocks
// included. FaultPartStall is excluded: its install draws a random
// partition index (and needs P > 1 at all), so the rng stream — not the
// certification semantics — depends on P.
func TestSimPartitionCountInvariance(t *testing.T) {
	faults := []sim.FaultClass{
		sim.FaultDrop, sim.FaultDropAfterCommit, sim.FaultCertStall,
		sim.FaultClockStorm, sim.FaultCrash, sim.FaultXPartDeadlock,
	}
	var stalls int
	for _, seed := range []uint64{11, 12} {
		var refRep *sim.Report
		var refWal []byte
		for _, parts := range []int{1, 2, 8} {
			cfg := sim.Config{
				Seed:           seed,
				Steps:          220,
				CertPartitions: parts,
				Faults:         faults,
				FaultPermille:  120,
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d parts=%d: %v", seed, parts, err)
			}
			wal := walBytes(t, rep.FinalDisk)
			if refRep == nil {
				refRep, refWal = rep, wal
				continue
			}
			if got, want := rep.Summary(), refRep.Summary(); got != want {
				t.Fatalf("seed=%d parts=%d report diverges from parts=1:\n  %s\n  %s",
					seed, parts, got, want)
			}
			if !bytes.Equal(rep.Trace, refRep.Trace) {
				t.Fatalf("seed=%d parts=%d: trace diverges from parts=1 (%d vs %d bytes)",
					seed, parts, len(rep.Trace), len(refRep.Trace))
			}
			if !bytes.Equal(wal, refWal) {
				t.Fatalf("seed=%d parts=%d: WAL diverges from parts=1 (%d vs %d bytes)",
					seed, parts, len(wal), len(refWal))
			}
		}
		if refRep.Recoveries == 0 {
			t.Errorf("seed=%d never crashed — the invariance check should cover recovery; raise FaultPermille", seed)
		}
		stalls += refRep.Faults[sim.FaultCertStall]
	}
	if stalls == 0 {
		t.Errorf("no seed stalled the certifier — the invariance check should cover stalled watermarks")
	}
}

// TestSimPartStallDeterminism: a run whose only faults are frozen
// certifier partitions replays byte-identically — the stalled
// partition's bound, the commits parked on the composed watermark and
// the stall's eventual lift are all on the driver's deterministic
// schedule.
func TestSimPartStallDeterminism(t *testing.T) {
	cfg := sim.Config{
		Seed:           23,
		Steps:          220,
		CertPartitions: 4,
		Faults:         []sim.FaultClass{sim.FaultPartStall},
		FaultPermille:  200,
	}
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
	if a.Faults[sim.FaultPartStall] == 0 {
		t.Fatalf("partition stall never injected: %s", a.Summary())
	}
}

// TestSimCrashDuringPartStall: crashing while one certifier partition is
// frozen is the partitioned backend's hardest corner — the dying
// incarnation's stalled worker must fall out of its hook, the recovery
// must re-prime all partitions over the stitched log and audit the
// composed graph against the batch check, and the runs must stay
// deterministic.
func TestSimCrashDuringPartStall(t *testing.T) {
	var stalls, crashes int
	for seed := uint64(41); seed <= 46; seed++ {
		cfg := sim.Config{
			Seed:           seed,
			Steps:          220,
			CertPartitions: 4,
			Faults:         []sim.FaultClass{sim.FaultPartStall, sim.FaultCrash},
			FaultPermille:  250,
		}
		a, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed=%d: %v\nreproduce: sim.Run(%+v)", seed, err, cfg)
		}
		b, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed=%d replay: %v", seed, err)
		}
		if a.Summary() != b.Summary() || !bytes.Equal(a.Trace, b.Trace) {
			t.Fatalf("seed=%d: crash+part-stall run is not deterministic:\n  %s\n  %s",
				seed, a.Summary(), b.Summary())
		}
		stalls += a.Faults[sim.FaultPartStall]
		crashes += a.Faults[sim.FaultCrash]
	}
	if stalls == 0 || crashes == 0 {
		t.Fatalf("fault mix never exercised both classes: stalls=%d crashes=%d", stalls, crashes)
	}
}

// TestSimPartsInMatrix pins the fault matrix's reach at a higher
// partition count: every fault class must inject and certify at P=4.
func TestSimPartsInMatrix(t *testing.T) {
	for _, class := range sim.AllFaults() {
		class := class
		t.Run(fmt.Sprintf("parts=4/%s", class), func(t *testing.T) {
			t.Parallel()
			cfg := sim.Config{
				Seed:           5,
				Steps:          160,
				CertPartitions: 4,
				Faults:         []sim.FaultClass{class},
				FaultPermille:  200,
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: sim.Run(%+v)", err, cfg)
			}
			if rep.Faults[class] == 0 {
				t.Errorf("fault %s never injected: %s", class, rep.Summary())
			}
		})
	}
}

// TestSimXPartDeadlockSpans: at P=4 with several objects, the injected
// crossing conflicts must actually span partitions — otherwise the fault
// class degenerates to ordinary same-partition deadlocks and the
// cross-partition waits-for path goes untested.
func TestSimXPartDeadlockSpans(t *testing.T) {
	cfg := sim.Config{
		Seed:           9,
		Steps:          220,
		Objects:        5,
		CertPartitions: 4,
		Faults:         []sim.FaultClass{sim.FaultXPartDeadlock},
		FaultPermille:  250,
	}
	rep, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%v\nreproduce: sim.Run(%+v)", err, cfg)
	}
	if rep.Faults[sim.FaultXPartDeadlock] == 0 {
		t.Fatalf("cross-partition deadlock never injected: %s", rep.Summary())
	}
	if rep.XPartSpans == 0 {
		t.Fatalf("no injected conflict spanned partitions (injected %d): %s",
			rep.Faults[sim.FaultXPartDeadlock], rep.Summary())
	}
}
