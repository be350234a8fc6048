// Package experiments implements the reproduction suite of EXPERIMENTS.md:
// one function per experiment (E1–E15), each returning the table it
// regenerates. cmd/experiments prints them; bench_test.go wraps them in
// testing.B benchmarks.
//
// The paper (PODS 1990) is a theory paper without measured tables, so the
// experiments are derived from its theorem structure — see DESIGN.md §3.
// Each function is deterministic in its seed set except for the timing
// columns.
package experiments

import (
	"fmt"
	"time"

	"nestedsg/internal/classic"
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/harness"
	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/oracle"
	"nestedsg/internal/replica"
	"nestedsg/internal/serial"
	"nestedsg/internal/simple"
	"nestedsg/internal/stats"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// Scale selects how much work each experiment does.
type Scale int

// Scales.
const (
	// Smoke is used by tests: a few seeds per cell.
	Smoke Scale = iota
	// Standard is the default for cmd/experiments.
	Standard
	// Full is the thorough overnight setting.
	Full
)

func (s Scale) seeds() int64 {
	switch s {
	case Smoke:
		return 3
	case Full:
		return 40
	default:
		return 12
	}
}

// Result bundles an experiment's table with pass/fail summary for the
// harness.
type Result struct {
	ID    string
	Table *stats.Table
	// Violations counts hard failures (a theorem experiment expecting zero
	// violations fails when this is non-zero).
	Violations int
	// Notes carries free-form findings.
	Notes []string
}

// E1MossSerialCorrectness sweeps workload shape and failure injection under
// Moss locking; every cell must report zero violations (Theorem 17).
func E1MossSerialCorrectness(scale Scale) *Result {
	type cell struct {
		name      string
		cfg       workload.Config
		abortProb float64
		maxAborts int
	}
	cells := []cell{
		{"flat", workload.Config{TopLevel: 6, Depth: 0, Fanout: 3, Objects: 3}, 0, 0},
		{"nested-d2", workload.Config{TopLevel: 5, Depth: 2, Fanout: 3, Objects: 3, ParProb: 0.5}, 0, 0},
		{"deep-d3", workload.Config{TopLevel: 4, Depth: 3, Fanout: 2, Objects: 3, ParProb: 0.5}, 0, 0},
		{"hot-spot", workload.Config{TopLevel: 6, Depth: 1, Fanout: 3, Objects: 4, HotProb: 0.8}, 0, 0},
		{"write-heavy", workload.Config{TopLevel: 6, Depth: 1, Fanout: 3, Objects: 3, ReadRatio: 0.1}, 0, 0},
		{"read-heavy", workload.Config{TopLevel: 6, Depth: 1, Fanout: 3, Objects: 3, ReadRatio: 0.9}, 0, 0},
		{"failures", workload.Config{TopLevel: 6, Depth: 2, Fanout: 3, Objects: 3, ParProb: 0.6, RetryProb: 0.5}, 0.03, 6},
		{"conditional", workload.Config{TopLevel: 5, Depth: 2, Fanout: 3, Objects: 3, CondProb: 0.6, ParProb: 0.5}, 0.02, 4},
	}
	res := &Result{ID: "E1", Table: stats.NewTable(
		"E1 — Theorem 17: Moss read/write locking is serially correct for T0",
		"workload", "runs", "events/run", "accesses/run", "aborts/run", "victims/run", "violations")}
	for _, c := range cells {
		var events, accesses, aborts, victims []float64
		violations := 0
		for seed := int64(0); seed < scale.seeds(); seed++ {
			cfg := c.cfg
			cfg.Seed = seed
			v, err := harness.RunAndCheck(harness.Options{
				Workload: cfg,
				Generic: generic.Options{Seed: seed * 101, Protocol: locking.Protocol{},
					AbortProb: c.abortProb, MaxAborts: c.maxAborts},
				ValidateWitness: true,
			})
			if err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %v", c.name, seed, err))
				violations++
				continue
			}
			if !v.SeriallyCorrect() {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %s", c.name, seed, v.Describe()))
			}
			events = append(events, float64(v.Stats.Events))
			accesses = append(accesses, float64(v.Stats.Accesses))
			aborts = append(aborts, float64(v.Stats.Aborts))
			victims = append(victims, float64(v.Stats.DeadlockVictims))
		}
		res.Violations += violations
		res.Table.AddRow(c.name, scale.seeds(), stats.Mean(events), stats.Mean(accesses),
			stats.Mean(aborts), stats.Mean(victims), violations)
	}
	return res
}

// E2UndoLogSerialCorrectness does the Theorem 25 sweep per data type.
func E2UndoLogSerialCorrectness(scale Scale) *Result {
	res := &Result{ID: "E2", Table: stats.NewTable(
		"E2 — Theorem 25: undo logging is serially correct for T0, per data type",
		"type", "runs", "events/run", "accesses/run", "blocked-polls/run", "violations")}
	for _, spn := range []string{"register", "counter", "account", "set", "appendlog", "queue", "mixed"} {
		var events, accesses, blocked []float64
		violations := 0
		for seed := int64(0); seed < scale.seeds(); seed++ {
			cfg := workload.Config{Seed: seed, TopLevel: 5, Depth: 2, Fanout: 3, Objects: 3,
				SpecName: spn, ParProb: 0.5, HotProb: 0.4}
			v, err := harness.RunAndCheck(harness.Options{
				Workload: cfg,
				Generic: generic.Options{Seed: seed*211 + 7, Protocol: undolog.Protocol{},
					AbortProb: 0.02, MaxAborts: 4},
				ValidateWitness: true,
			})
			if err != nil {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %v", spn, seed, err))
				continue
			}
			if !v.SeriallyCorrect() {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %s", spn, seed, v.Describe()))
			}
			events = append(events, float64(v.Stats.Events))
			accesses = append(accesses, float64(v.Stats.Accesses))
			blocked = append(blocked, float64(v.Stats.Blocked))
		}
		res.Violations += violations
		res.Table.AddRow(spn, scale.seeds(), stats.Mean(events), stats.Mean(accesses),
			stats.Mean(blocked), violations)
	}
	return res
}

// E3NegativeControls runs the broken protocols and reports how often the
// checker flags them and through which detector. The experiment fails if a
// broken protocol is never flagged, or if a flagged-clean run cannot be
// witnessed (checker unsoundness).
func E3NegativeControls(scale Scale) *Result {
	res := &Result{ID: "E3", Table: stats.NewTable(
		"E3 — negative controls: detection of deliberately broken protocols",
		"protocol", "runs", "flagged", "value-violations", "cycles", "passed+witnessed", "unsound")}
	type ctl struct {
		proto     object.Protocol
		specName  string
		abortProb float64
		maxAborts int
	}
	controls := []ctl{
		{locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}, "register", 0, 0},
		{locking.BrokenProtocol{Mode: locking.NoInheritance}, "register", 0, 0},
		// The recovery bugs only surface when an abort lands on a write
		// that a later committed access observes, so their cells inject
		// aborts aggressively over a single hot, write-heavy object.
		{locking.BrokenProtocol{Mode: locking.KeepAbortState}, "register", 0.15, 30},
		{undolog.BrokenProtocol{Mode: undolog.NoUndo}, "register", 0.15, 30},
		{undolog.BrokenProtocol{Mode: undolog.SkipCommute}, "register", 0, 0},
	}
	runs := scale.seeds() * 3
	for _, c := range controls {
		flagged, valueViol, cycles, passed, unsound := 0, 0, 0, 0, 0
		for seed := int64(0); seed < runs; seed++ {
			cfg := workload.Config{Seed: seed, TopLevel: 6, Depth: 1, Fanout: 3,
				Objects: 1, HotProb: 1, ParProb: 0.8, ReadRatio: 0.35, SpecName: c.specName}
			v, err := harness.RunAndCheck(harness.Options{
				Workload: cfg,
				Generic: generic.Options{Seed: seed * 977, Protocol: c.proto,
					AbortProb: c.abortProb, MaxAborts: c.maxAborts},
				ValidateWitness: true,
			})
			if err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %v", c.proto.Name(), seed, err))
				continue
			}
			switch {
			case v.Check.OK:
				passed++
				if v.WitnessErr != nil {
					unsound++
				}
			case len(v.Check.ValueViolations) > 0:
				flagged++
				valueViol++
			case v.Check.Cycle != nil:
				flagged++
				cycles++
			default:
				flagged++
			}
		}
		if flagged == 0 {
			res.Violations++
			res.Notes = append(res.Notes, c.proto.Name()+": never flagged")
		}
		res.Violations += unsound
		res.Table.AddRow(c.proto.Name(), runs, flagged, valueViol, cycles, passed, unsound)
	}
	return res
}

// E4CommutativityConcurrency compares Moss read/update locking against undo
// logging on a hot commuting-update workload (the §6 motivation): as
// contention grows, locking serializes updaters while the undo log admits
// them concurrently.
func E4CommutativityConcurrency(scale Scale) *Result {
	res := &Result{ID: "E4", Table: stats.NewTable(
		"E4 — type-specific concurrency on a hot counter (Moss vs undo log)",
		"workload", "top-level txs", "protocol", "blocked-polls/run", "victims/run", "steps/access", "wall µs/access")}
	type mix struct {
		name       string
		updateOnly bool
	}
	for _, m := range []mix{{"updates-only", true}, {"with-observers", false}} {
		for _, topLevel := range []int{2, 4, 8, 16} {
			for _, proto := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
				var blocked, victims, stepsPerAccess, usPerAccess []float64
				for seed := int64(0); seed < scale.seeds(); seed++ {
					tr := tname.NewTree()
					cfg := workload.Config{Seed: seed, TopLevel: topLevel, Depth: 0, Fanout: 4,
						Objects: 1, HotProb: 1, SpecName: "counter", UpdateOnly: m.updateOnly}
					root := workload.Build(tr, cfg)
					start := time.Now()
					_, st, err := generic.Run(tr, root, generic.Options{Seed: seed * 17, Protocol: proto})
					if err != nil {
						res.Notes = append(res.Notes, fmt.Sprintf("E4 %s/%d seed %d: %v", proto.Name(), topLevel, seed, err))
						res.Violations++
						continue
					}
					el := time.Since(start)
					blocked = append(blocked, float64(st.Blocked))
					victims = append(victims, float64(st.DeadlockVictims))
					if st.Accesses > 0 {
						stepsPerAccess = append(stepsPerAccess, float64(st.Steps)/float64(st.Accesses))
						usPerAccess = append(usPerAccess, float64(el.Microseconds())/float64(st.Accesses))
					}
				}
				res.Table.AddRow(m.name, topLevel, proto.Name(), stats.Mean(blocked), stats.Mean(victims),
					stats.Mean(stepsPerAccess), stats.Mean(usPerAccess))
			}
		}
	}
	return res
}

// E5SGConstruction measures serialization-graph build plus acyclicity cost
// against trace length.
func E5SGConstruction(scale Scale) *Result {
	res := &Result{ID: "E5", Table: stats.NewTable(
		"E5 — SG(β) construction cost vs history length",
		"top-level txs", "trace events", "visible ops", "edges", "µs")}
	sizes := []int{4, 8, 16, 32}
	if scale == Full {
		sizes = append(sizes, 64, 128)
	}
	for _, topLevel := range sizes {
		tr := tname.NewTree()
		cfg := workload.Config{Seed: 42, TopLevel: topLevel, Depth: 1, Fanout: 3,
			Objects: 4, HotProb: 0.3, ParProb: 0.5}
		root := workload.Build(tr, cfg)
		b, _, err := generic.Run(tr, root, generic.Options{Seed: 99, Protocol: locking.Protocol{}})
		if err != nil {
			res.Violations++
			res.Notes = append(res.Notes, fmt.Sprintf("E5 %d: %v", topLevel, err))
			continue
		}
		const reps = 5
		start := time.Now()
		var sg *core.SG
		for i := 0; i < reps; i++ {
			sg = core.Build(tr, b)
			if _, cyc := sg.Acyclicity(); cyc != nil {
				res.Violations++
			}
		}
		res.Table.AddRow(topLevel, len(b), len(sg.VisibleOps), sg.NumEdges(),
			(time.Since(start) / reps).Microseconds())
	}
	return res
}

// E6ClassicalEquivalence checks the subsumption of the classical theory on
// flat histories: conflict edges of SG(β, T0) equal the classical SGT
// edges, and both verdicts agree.
func E6ClassicalEquivalence(scale Scale) *Result {
	res := &Result{ID: "E6", Table: stats.NewTable(
		"E6 — classical SGT equivalence on flat histories",
		"protocol", "runs", "edges compared", "mismatches", "non-serializable")}
	for _, proto := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		edges, mismatches, nonSer := 0, 0, 0
		runs := scale.seeds() * 2
		for seed := int64(0); seed < runs; seed++ {
			tr := tname.NewTree()
			cfg := workload.Config{Seed: seed, TopLevel: 6, Depth: 0, Fanout: 3,
				Objects: 2, HotProb: 0.5}
			root := workload.Build(tr, cfg)
			b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 31, Protocol: proto})
			if err != nil {
				res.Violations++
				continue
			}
			sgt, err := classic.BuildSGT(tr, b)
			if err != nil {
				res.Violations++
				continue
			}
			edges += len(sgt.Edges)
			if msg := sgt.CompareWithNested(tr, core.Build(tr, b)); msg != "" {
				mismatches++
				res.Notes = append(res.Notes, msg)
			}
			if !sgt.Serializable() {
				nonSer++
			}
		}
		res.Violations += mismatches + nonSer
		res.Table.AddRow(proto.Name(), runs, edges, mismatches, nonSer)
	}
	return res
}

// E7CurrentSafe audits the Lemma 6 conditions on Moss traces: every read
// visible to T0 must be current and safe, matching the appropriate-return-
// values audit.
func E7CurrentSafe(scale Scale) *Result {
	res := &Result{ID: "E7", Table: stats.NewTable(
		"E7 — Lemma 6: current+safe audit of Moss traces",
		"workload", "runs", "reads audited", "current", "safe", "violations")}
	cells := []workload.Config{
		{TopLevel: 6, Depth: 1, Fanout: 3, Objects: 3, ReadRatio: 0.7},
		{TopLevel: 5, Depth: 2, Fanout: 3, Objects: 2, HotProb: 0.6, ParProb: 0.6},
	}
	for ci, base := range cells {
		reads, current, safe, violations := 0, 0, 0, 0
		for seed := int64(0); seed < scale.seeds(); seed++ {
			cfg := base
			cfg.Seed = seed
			tr := tname.NewTree()
			root := workload.Build(tr, cfg)
			b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 53, Protocol: locking.Protocol{},
				AbortProb: 0.02, MaxAborts: 4})
			if err != nil {
				res.Violations++
				continue
			}
			rep, badWrites := simple.AuditCurrentSafe(tr, b)
			violations += len(badWrites)
			for _, r := range rep {
				reads++
				if r.Current {
					current++
				}
				if r.Safe {
					safe++
				}
				if !r.Current || !r.Safe {
					violations++
				}
			}
		}
		res.Violations += violations
		res.Table.AddRow(fmt.Sprintf("cell-%d", ci), scale.seeds(), reads, current, safe, violations)
	}
	return res
}

// E8ProtocolOverhead compares end-to-end run cost: serial scheduler (no
// concurrency), Moss locking and undo logging on identical workloads.
func E8ProtocolOverhead(scale Scale) *Result {
	res := &Result{ID: "E8", Table: stats.NewTable(
		"E8 — protocol overhead on identical workloads",
		"protocol", "runs", "events/run", "wall µs/run", "µs/access")}
	base := workload.Config{TopLevel: 8, Depth: 1, Fanout: 3, Objects: 4, ParProb: 0.5}
	type row struct {
		name string
		run  func(seed int64) (int, int, error) // events, accesses
	}
	rows := []row{
		{"serial", func(seed int64) (int, int, error) {
			tr := tname.NewTree()
			cfg := base
			cfg.Seed = seed
			root := workload.Build(tr, cfg)
			b, err := serial.Run(tr, root, serial.Options{Seed: seed})
			acc := 0
			for _, op := range b.Operations(tr) {
				_ = op
				acc++
			}
			return len(b), acc, err
		}},
		{"moss", func(seed int64) (int, int, error) {
			tr := tname.NewTree()
			cfg := base
			cfg.Seed = seed
			root := workload.Build(tr, cfg)
			b, st, err := generic.Run(tr, root, generic.Options{Seed: seed, Protocol: locking.Protocol{}})
			return len(b), st.Accesses, err
		}},
		{"undolog", func(seed int64) (int, int, error) {
			tr := tname.NewTree()
			cfg := base
			cfg.Seed = seed
			root := workload.Build(tr, cfg)
			b, st, err := generic.Run(tr, root, generic.Options{Seed: seed, Protocol: undolog.Protocol{}})
			return len(b), st.Accesses, err
		}},
	}
	for _, r := range rows {
		var events, us, usAcc []float64
		for seed := int64(0); seed < scale.seeds(); seed++ {
			start := time.Now()
			ev, acc, err := r.run(seed)
			el := time.Since(start)
			if err != nil {
				res.Violations++
				continue
			}
			events = append(events, float64(ev))
			us = append(us, float64(el.Microseconds()))
			if acc > 0 {
				usAcc = append(usAcc, float64(el.Microseconds())/float64(acc))
			}
		}
		res.Table.AddRow(r.name, scale.seeds(), stats.Mean(events), stats.Mean(us), stats.Mean(usAcc))
	}
	return res
}

// E9DeadlockFailure sweeps contention and failure injection under Moss and
// reports deadlock frequency and abort costs; correctness must hold in
// every cell.
func E9DeadlockFailure(scale Scale) *Result {
	res := &Result{ID: "E9", Table: stats.NewTable(
		"E9 — deadlocks and failure injection under Moss locking (policy ablation)",
		"hot-prob", "abort-prob", "policy", "runs", "victims/run", "aborts/run", "steps/run", "commit-rate", "violations")}
	for _, hot := range []float64{0.2, 0.6, 1.0} {
		for _, ap := range []float64{0, 0.03} {
			for _, eager := range []bool{false, true} {
				var victims, aborts, steps, commitRate []float64
				violations := 0
				for seed := int64(0); seed < scale.seeds(); seed++ {
					cfg := workload.Config{Seed: seed, TopLevel: 8, Depth: 1, Fanout: 3,
						Objects: 2, HotProb: hot, ParProb: 0.8, ReadRatio: 0.4}
					maxAborts := 0
					if ap > 0 {
						maxAborts = 8
					}
					v, err := harness.RunAndCheck(harness.Options{
						Workload: cfg,
						Generic: generic.Options{Seed: seed * 7919, Protocol: locking.Protocol{},
							AbortProb: ap, MaxAborts: maxAborts, EagerDeadlock: eager},
						ValidateWitness: true,
					})
					if err != nil {
						violations++
						continue
					}
					if !v.SeriallyCorrect() {
						violations++
						res.Notes = append(res.Notes, v.Describe())
					}
					victims = append(victims, float64(v.Stats.DeadlockVictims))
					aborts = append(aborts, float64(v.Stats.Aborts))
					steps = append(steps, float64(v.Stats.Steps))
					if tot := v.Stats.Commits + v.Stats.Aborts; tot > 0 {
						commitRate = append(commitRate, float64(v.Stats.Commits)/float64(tot))
					}
				}
				policy := "quiescence"
				if eager {
					policy = "eager"
				}
				res.Violations += violations
				res.Table.AddRow(hot, ap, policy, scale.seeds(), stats.Mean(victims), stats.Mean(aborts),
					stats.Mean(steps), stats.Mean(commitRate), violations)
			}
		}
	}
	return res
}

// E10WitnessReplay measures the cost of materializing the serial witness γ
// and verifying γ|T0 = β|T0.
func E10WitnessReplay(scale Scale) *Result {
	res := &Result{ID: "E10", Table: stats.NewTable(
		"E10 — serial witness construction cost",
		"top-level txs", "β events", "γ events", "check µs", "witness µs")}
	sizes := []int{4, 8, 16, 32}
	if scale == Full {
		sizes = append(sizes, 64)
	}
	for _, topLevel := range sizes {
		tr := tname.NewTree()
		cfg := workload.Config{Seed: 4242, TopLevel: topLevel, Depth: 1, Fanout: 3,
			Objects: 4, ParProb: 0.5}
		root := workload.Build(tr, cfg)
		b, _, err := generic.Run(tr, root, generic.Options{Seed: 5, Protocol: locking.Protocol{}})
		if err != nil {
			res.Violations++
			continue
		}
		start := time.Now()
		chk := core.Check(tr, b)
		checkDur := time.Since(start)
		if !chk.OK {
			res.Violations++
			res.Notes = append(res.Notes, chk.Summary(tr))
			continue
		}
		start = time.Now()
		gamma, err := serial.Witness(tr, root, b, chk.Certificate.Order)
		witnessDur := time.Since(start)
		if err != nil {
			res.Violations++
			res.Notes = append(res.Notes, err.Error())
			continue
		}
		res.Table.AddRow(topLevel, len(b), len(gamma), checkDur.Microseconds(), witnessDur.Microseconds())
	}
	return res
}

// E11Conservatism quantifies the incompleteness the paper concedes in §1
// ("the acyclicity of the graphs we construct is merely a sufficient
// condition"): on traces produced by a broken protocol, how many
// SG-flagged behaviors does the exhaustive oracle still certify via some
// suitable sibling order? Soundness is asserted in both directions where
// the theory requires it: checker-OK traces must always be oracle-Found.
func E11Conservatism(scale Scale) *Result {
	res := &Result{ID: "E11", Table: stats.NewTable(
		"E11 — conservatism of SG acyclicity vs exhaustive order search",
		"trace source", "runs", "checker-ok", "flagged", "flagged-but-order-exists", "no-order", "budget-exceeded")}
	type src struct {
		name  string
		proto object.Protocol
	}
	sources := []src{
		{"moss (correct)", locking.Protocol{}},
		{"undolog-broken-commute", undolog.BrokenProtocol{Mode: undolog.SkipCommute}},
		{"moss-broken-readlocks", locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}},
	}
	runs := scale.seeds() * 2
	for _, s := range sources {
		ok, flagged, conservative, noOrder, exhausted := 0, 0, 0, 0, 0
		for seed := int64(0); seed < runs; seed++ {
			tr := tname.NewTree()
			cfg := workload.Config{Seed: seed, TopLevel: 4, Depth: 1, Fanout: 2,
				Objects: 1, HotProb: 1, ParProb: 0.9, ReadRatio: 0.5}
			root := workload.Build(tr, cfg)
			b, _, err := generic.Run(tr, root, generic.Options{Seed: seed * 41, Protocol: s.proto})
			if err != nil {
				res.Violations++
				continue
			}
			chk := core.Check(tr, b)
			or := oracle.Search(tr, b, 200000)
			if chk.OK {
				ok++
				if or.Outcome != oracle.Found {
					res.Violations++
					res.Notes = append(res.Notes,
						fmt.Sprintf("%s seed %d: checker OK but oracle %s", s.name, seed, or.Outcome))
				}
				continue
			}
			flagged++
			switch or.Outcome {
			case oracle.Found:
				conservative++
			case oracle.NoOrder:
				noOrder++
			default:
				exhausted++
			}
		}
		res.Table.AddRow(s.name, runs, ok, flagged, conservative, noOrder, exhausted)
	}
	return res
}

// E12OrphanActivity compares the default controller (orphans frozen on
// abort) with the paper's full nondeterminism (orphans keep running).
// Orphan operations are invisible to T0, so correctness must hold in both
// modes; the table shows the extra work orphans burn.
func E12OrphanActivity(scale Scale) *Result {
	res := &Result{ID: "E12", Table: stats.NewTable(
		"E12 — orphan activity (frozen vs running orphans, with failure injection)",
		"protocol", "orphans", "runs", "events/run", "accesses/run", "orphan-accesses/run", "violations")}
	for _, proto := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		for _, allow := range []bool{false, true} {
			var events, accesses, orphanAcc []float64
			violations := 0
			for seed := int64(0); seed < scale.seeds(); seed++ {
				cfg := workload.Config{Seed: seed, TopLevel: 5, Depth: 2, Fanout: 3,
					Objects: 2, HotProb: 0.6, ParProb: 0.7}
				v, err := harness.RunAndCheck(harness.Options{
					Workload: cfg,
					Generic: generic.Options{Seed: seed*577 + 3, Protocol: proto,
						AbortProb: 0.04, MaxAborts: 6, AllowOrphans: allow},
					ValidateWitness: true,
				})
				if err != nil {
					violations++
					res.Notes = append(res.Notes, fmt.Sprintf("orphans=%v seed %d: %v", allow, seed, err))
					continue
				}
				if !v.SeriallyCorrect() {
					violations++
					res.Notes = append(res.Notes, fmt.Sprintf("orphans=%v seed %d: %s", allow, seed, v.Describe()))
				}
				events = append(events, float64(v.Stats.Events))
				accesses = append(accesses, float64(v.Stats.Accesses))
				orphanAcc = append(orphanAcc, float64(countOrphanAccesses(v)))
			}
			res.Violations += violations
			mode := "frozen"
			if allow {
				mode = "running"
			}
			res.Table.AddRow(proto.Name(), mode, scale.seeds(), stats.Mean(events),
				stats.Mean(accesses), stats.Mean(orphanAcc), violations)
		}
	}
	return res
}

// countOrphanAccesses counts access REQUEST_COMMITs that happen after an
// ancestor's ABORT.
func countOrphanAccesses(v *harness.Verdict) int {
	abortedAt := map[tname.TxID]int{}
	for i, e := range v.Trace {
		if e.Kind == event.Abort {
			abortedAt[e.Tx] = i
		}
	}
	n := 0
	for i, e := range v.Trace {
		if e.Kind != event.RequestCommit || !v.Tree.IsAccess(e.Tx) {
			continue
		}
		for anc, pos := range abortedAt {
			if i > pos && v.Tree.IsDescendant(e.Tx, anc) {
				n++
				break
			}
		}
	}
	return n
}

// E13MultiversionGap runs the Reed-style multiversion timestamp protocol
// (internal/mvto) and measures the §7 gap: the event-order serialization
// graph flags most of its runs, yet every one is serially correct for T0 —
// certified by the exhaustive Theorem-2 oracle and replayed into a serial
// witness under the oracle's order. A run the oracle cannot certify counts
// as a violation.
func E13MultiversionGap(scale Scale) *Result {
	res := &Result{ID: "E13", Table: stats.NewTable(
		"E13 — multiversion timestamps vs the event-order SG construction (§7 gap)",
		"workload", "runs", "sg-flagged", "oracle-certified", "witnessed", "restarts/run", "violations")}
	cells := []struct {
		name string
		cfg  workload.Config
	}{
		{"low-contention", workload.Config{TopLevel: 4, Depth: 1, Fanout: 2, Objects: 3, ReadRatio: 0.6, ParProb: 0.9}},
		{"hot-reads", workload.Config{TopLevel: 4, Depth: 1, Fanout: 2, Objects: 1, HotProb: 1, ReadRatio: 0.7, ParProb: 0.9}},
		{"hot-writes", workload.Config{TopLevel: 5, Depth: 0, Fanout: 3, Objects: 1, HotProb: 1, ReadRatio: 0.3}},
	}
	for _, c := range cells {
		flagged, certified, witnessed, violations := 0, 0, 0, 0
		var restarts []float64
		for seed := int64(0); seed < scale.seeds(); seed++ {
			tr := tname.NewTree()
			cfg := c.cfg
			cfg.Seed = seed
			root := workload.Build(tr, cfg)
			b, st, err := generic.Run(tr, root, generic.Options{Seed: seed*13 + 5, Protocol: mvto.NewProtocol(tr)})
			if err != nil {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %v", c.name, seed, err))
				continue
			}
			restarts = append(restarts, float64(st.ProtocolAborts))
			if chk := core.Check(tr, b); !chk.OK {
				flagged++
			}
			or := oracle.Search(tr, b, 500000)
			if or.Outcome != oracle.Found {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: oracle %s", c.name, seed, or.Outcome))
				continue
			}
			certified++
			gamma, err := serial.Witness(tr, root, b, or.Order)
			if err != nil {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: witness: %v", c.name, seed, err))
				continue
			}
			if serial.Validate(tr, gamma) == nil {
				witnessed++
			} else {
				violations++
			}
		}
		res.Violations += violations
		res.Table.AddRow(c.name, scale.seeds(), flagged, certified, witnessed,
			stats.Mean(restarts), violations)
	}
	return res
}

// E14ReplicatedData runs the quorum-replicated register objects (the
// paper's [6] lineage) across quorum geometries and availability levels:
// correctness must hold everywhere, with the per-step quorum-intersection
// audit enabled; the table reports the price of unavailability.
func E14ReplicatedData(scale Scale) *Result {
	res := &Result{ID: "E14", Table: stats.NewTable(
		"E14 — quorum-replicated registers under Moss locking ([6] lineage)",
		"config", "unavail-p", "runs", "events/run", "quorum-failures/run", "installs/run", "violations")}
	type geom struct{ n, r, w int }
	for _, g := range []geom{{1, 1, 1}, {3, 2, 2}, {5, 3, 3}, {5, 2, 4}} {
		for _, p := range []float64{0, 0.3} {
			if g.n == 1 && p > 0 {
				continue // a single unavailable copy only adds retries
			}
			var events, qfails, installs []float64
			violations := 0
			for seed := int64(0); seed < scale.seeds(); seed++ {
				cfgR := replica.Config{Copies: g.n, ReadQuorum: g.r, WriteQuorum: g.w,
					UnavailableProb: p, Seed: seed * 131}
				var objs []*replica.Replicated
				proto := capturingReplicaProtocol{cfg: cfgR, out: &objs}
				v, err := harness.RunAndCheck(harness.Options{
					Workload: workload.Config{Seed: seed, TopLevel: 5, Depth: 1, Fanout: 3,
						Objects: 2, HotProb: 0.6, ParProb: 0.7},
					Generic: generic.Options{Seed: seed*17 + 3, Protocol: proto,
						AbortProb: 0.02, MaxAborts: 4, AuditObjects: true},
					ValidateWitness: true,
				})
				if err != nil {
					violations++
					res.Notes = append(res.Notes, fmt.Sprintf("replica p=%.1f seed %d: %v", p, seed, err))
					continue
				}
				if !v.SeriallyCorrect() {
					violations++
					res.Notes = append(res.Notes, fmt.Sprintf("replica p=%.1f seed %d: %s", p, seed, v.Describe()))
				}
				events = append(events, float64(v.Stats.Events))
				var qf, ins float64
				for _, o := range objs {
					qf += float64(o.QuorumFailures)
					ins += float64(o.Installs)
				}
				qfails = append(qfails, qf)
				installs = append(installs, ins)
			}
			res.Violations += violations
			res.Table.AddRow(fmt.Sprintf("n%d/r%d/w%d", g.n, g.r, g.w), p, scale.seeds(),
				stats.Mean(events), stats.Mean(qfails), stats.Mean(installs), violations)
		}
	}
	return res
}

// capturingReplicaProtocol records the objects it creates.
type capturingReplicaProtocol struct {
	cfg replica.Config
	out *[]*replica.Replicated
}

func (p capturingReplicaProtocol) Name() string { return "replica-capture" }

func (p capturingReplicaProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	o := replica.New(tr, x, p.cfg)
	*p.out = append(*p.out, o)
	return o
}

// E15Streaming measures the incremental (streaming) checker on a contended
// multi-object workload. The streaming replay must agree with the batch SG
// verdict on every trace — clean Moss rows never reject, broken-protocol
// rows reject at a strict prefix (the table reports the mean rejection
// point as a fraction of the trace) — and the µs column records what one
// batch construction of the same graph costs.
func E15Streaming(scale Scale) *Result {
	res := &Result{ID: "E15", Table: stats.NewTable(
		"E15 — streaming check cost per event and batch SG construction",
		"workload", "runs", "events/run", "ns/event stream", "reject frac",
		"µs build", "violations")}
	topLevel := 16
	switch scale {
	case Standard:
		topLevel = 32
	case Full:
		topLevel = 64
	}
	mossTrace := func(seed int64, proto object.Protocol) (*tname.Tree, event.Behavior, error) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: topLevel, Depth: 2,
			Fanout: 3, Objects: 8, HotProb: 0.3, ParProb: 0.7})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: seed*19 + 7, Protocol: proto})
		return tr, b, err
	}
	// The serial scheduler commits every access, so its traces maximize
	// visible operations per event. Lock-protocol traces under contention
	// abort most transactions and leave the conflict scan with little to do.
	denseTrace := func(seed int64) (*tname.Tree, event.Behavior, error) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: topLevel * 4, Depth: 1,
			Fanout: 4, Objects: 8, ParProb: 0.5})
		b, err := serial.Run(tr, root, serial.Options{Seed: seed*19 + 7})
		return tr, b, err
	}
	cells := []struct {
		name  string
		gen   func(int64) (*tname.Tree, event.Behavior, error)
		clean bool
	}{
		{"moss contended", func(s int64) (*tname.Tree, event.Behavior, error) {
			return mossTrace(s, locking.Protocol{})
		}, true},
		{"moss-broken-readlocks", func(s int64) (*tname.Tree, event.Behavior, error) {
			return mossTrace(s, locking.BrokenProtocol{Mode: locking.IgnoreReadLocks})
		}, false},
		{"serial dense", denseTrace, true},
	}
	const reps = 3
	for _, c := range cells {
		var events, nsPerEvent, rejectFrac, usBuild []float64
		violations := 0
		for seed := int64(0); seed < scale.seeds(); seed++ {
			tr, b, err := c.gen(seed)
			if err != nil {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: %v", c.name, seed, err))
				continue
			}
			events = append(events, float64(len(b)))

			start := time.Now()
			var at int
			for i := 0; i < reps; i++ {
				at, _ = core.StreamPrefix(tr, b)
			}
			nsPerEvent = append(nsPerEvent, float64((time.Since(start)/reps).Nanoseconds())/float64(len(b)))

			start = time.Now()
			var sg *core.SG
			for i := 0; i < reps; i++ {
				sg = core.Build(tr, b)
			}
			usBuild = append(usBuild, float64((time.Since(start) / reps).Microseconds()))
			_, cyc := sg.Acyclicity()
			if (at >= 0) != (cyc != nil) {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: stream at=%d but batch cyclic=%v",
					c.name, seed, at, cyc != nil))
			}
			if c.clean && at >= 0 {
				violations++
				res.Notes = append(res.Notes, fmt.Sprintf("%s seed %d: clean run rejected at %d", c.name, seed, at))
			}
			if at >= 0 {
				rejectFrac = append(rejectFrac, float64(at+1)/float64(len(b)))
			}
		}
		res.Violations += violations
		res.Table.AddRow(c.name, scale.seeds(), stats.Mean(events), stats.Mean(nsPerEvent),
			stats.Mean(rejectFrac), stats.Mean(usBuild), violations)
	}
	return res
}

// All runs every experiment at the given scale, in order.
func All(scale Scale) []*Result {
	return []*Result{
		E1MossSerialCorrectness(scale),
		E2UndoLogSerialCorrectness(scale),
		E3NegativeControls(scale),
		E4CommutativityConcurrency(scale),
		E5SGConstruction(scale),
		E6ClassicalEquivalence(scale),
		E7CurrentSafe(scale),
		E8ProtocolOverhead(scale),
		E9DeadlockFailure(scale),
		E10WitnessReplay(scale),
		E11Conservatism(scale),
		E12OrphanActivity(scale),
		E13MultiversionGap(scale),
		E14ReplicatedData(scale),
		E15Streaming(scale),
	}
}
