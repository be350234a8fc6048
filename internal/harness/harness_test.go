package harness

import (
	"strings"
	"testing"

	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// TestPipelineMossSmoke runs one small Moss-locking workload end to end:
// generic run, Theorem 8 check, witness construction and validation.
func TestPipelineMossSmoke(t *testing.T) {
	v, err := RunAndCheck(Options{
		Workload:         workload.Config{Seed: 1, TopLevel: 4, Depth: 2, Fanout: 3, Objects: 3, ParProb: 0.5},
		Generic:          generic.Options{Seed: 2, Protocol: locking.Protocol{}},
		ValidateWitness:  true,
		AuditSuitability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.SeriallyCorrect() {
		t.Fatalf("expected serial correctness: %s", v.Describe())
	}
	if v.Stats.Accesses == 0 {
		t.Fatal("workload performed no accesses")
	}
}

// TestPipelineUndoLogSmoke does the same for undo logging over mixed types.
func TestPipelineUndoLogSmoke(t *testing.T) {
	v, err := RunAndCheck(Options{
		Workload:         workload.Config{Seed: 3, TopLevel: 4, Depth: 2, Fanout: 3, Objects: 6, SpecName: "mixed", ParProb: 0.5},
		Generic:          generic.Options{Seed: 4, Protocol: undolog.Protocol{}},
		ValidateWitness:  true,
		AuditSuitability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.SeriallyCorrect() {
		t.Fatalf("expected serial correctness: %s", v.Describe())
	}
}

// TestPipelineWithFailures injects spontaneous aborts and still expects
// serial correctness for T0.
func TestPipelineWithFailures(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		v, err := RunAndCheck(Options{
			Workload: workload.Config{Seed: seed, TopLevel: 5, Depth: 2, Fanout: 3, Objects: 3,
				ParProb: 0.6, RetryProb: 0.5, CondProb: 0.4, HotProb: 0.4},
			Generic: generic.Options{Seed: seed + 100, Protocol: locking.Protocol{},
				AbortProb: 0.02, MaxAborts: 5},
			ValidateWitness: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.SeriallyCorrect() {
			t.Fatalf("seed %d: %s", seed, v.Describe())
		}
	}
}

// TestHarnessDeterminism: identical options produce byte-identical traces,
// identical certificates and identical witnesses.
func TestHarnessDeterminism(t *testing.T) {
	opts := Options{
		Workload: workload.Config{Seed: 6, TopLevel: 5, Depth: 2, Fanout: 3, Objects: 3,
			ParProb: 0.6, RetryProb: 0.3, CondProb: 0.3},
		Generic: generic.Options{Seed: 60, Protocol: locking.Protocol{},
			AbortProb: 0.02, MaxAborts: 4},
	}
	a, err := RunAndCheck(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAndCheck(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Trace.Equal(b.Trace) {
		t.Fatal("traces differ across identical runs")
	}
	if !a.Witness.Equal(b.Witness) {
		t.Fatal("witnesses differ across identical runs")
	}
	if a.Check.SG.NumEdges() != b.Check.SG.NumEdges() {
		t.Fatal("graphs differ across identical runs")
	}
}

// TestDescribe renders verdicts for both passing and failing runs.
func TestDescribe(t *testing.T) {
	good, err := RunAndCheck(Options{
		Workload:        workload.Config{Seed: 1, TopLevel: 3, Depth: 1, Fanout: 2, Objects: 2},
		Generic:         generic.Options{Seed: 1, Protocol: locking.Protocol{}},
		ValidateWitness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := good.Describe()
	if !strings.Contains(s, "serially correct") || !strings.Contains(s, "witness:") {
		t.Errorf("describe: %s", s)
	}
	// A failing run (broken protocol, scan seeds).
	for seed := int64(0); seed < 20; seed++ {
		bad, err := RunAndCheck(Options{
			Workload: workload.Config{Seed: seed, TopLevel: 6, Depth: 1, Fanout: 3,
				Objects: 1, HotProb: 1, ParProb: 0.9},
			Generic: generic.Options{Seed: seed * 7,
				Protocol: undolog.BrokenProtocol{Mode: undolog.SkipCommute}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bad.Check.OK {
			if s := bad.Describe(); !strings.Contains(s, "cycle") && !strings.Contains(s, "inappropriate") {
				t.Errorf("failing describe: %s", s)
			}
			return
		}
	}
	t.Log("no failing seed found; describe failure path untested this run")
}

// TestStreamingOption: the streaming option agrees with the batch verdict.
func TestStreamingOption(t *testing.T) {
	good, err := RunAndCheck(Options{
		Workload:    workload.Config{Seed: 5, TopLevel: 5, Depth: 1, Fanout: 3, Objects: 2, HotProb: 0.7, ParProb: 0.7},
		Generic:     generic.Options{Seed: 9, Protocol: locking.Protocol{}},
		SkipWitness: true,
		Streaming:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !good.Check.OK {
		t.Fatalf("moss run must pass: %s", good.Describe())
	}
	if good.StreamRejectedAt != -1 || good.StreamCycle != nil {
		t.Fatalf("streaming rejected a passing trace at %d", good.StreamRejectedAt)
	}

	rejected := false
	for seed := int64(0); seed < 20 && !rejected; seed++ {
		bad, err := RunAndCheck(Options{
			Workload:    workload.Config{Seed: seed, TopLevel: 6, Depth: 1, Fanout: 3, Objects: 1, HotProb: 1, ParProb: 0.9},
			Generic:     generic.Options{Seed: seed * 13, Protocol: undolog.BrokenProtocol{Mode: undolog.SkipCommute}},
			SkipWitness: true,
			Streaming:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if bad.Check.Cycle == nil {
			continue
		}
		rejected = true
		if bad.StreamRejectedAt < 0 || bad.StreamCycle == nil {
			t.Fatalf("offline found a cycle but streaming did not: %s", bad.Describe())
		}
		if bad.StreamRejectedAt >= len(bad.Trace) {
			t.Fatalf("rejection index %d out of range", bad.StreamRejectedAt)
		}
	}
	if !rejected {
		t.Error("no cyclic trace found; the streaming rejection path is untested")
	}
}
