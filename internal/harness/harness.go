// Package harness wires the full pipeline used by the experiment suite and
// the property tests: generate a workload, run it under a generic-system
// protocol, check the trace with the serialization-graph construction, and
// (when a program is available) materialize and validate the serial
// witness.
package harness

import (
	"fmt"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/program"
	"nestedsg/internal/serial"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// Verdict is the outcome of one end-to-end run.
type Verdict struct {
	// Tree and Trace are the system type and recorded behavior.
	Tree  *tname.Tree
	Trace event.Behavior
	// Root is the generated program of T0.
	Root *program.Node
	// Stats are the runner's counters.
	Stats generic.Stats
	// Check is the Theorem 8/19 checker result.
	Check *core.Result
	// Witness is the serial witness behavior (nil when Check failed or
	// witnessing was skipped); WitnessErr records a witness failure.
	Witness    event.Behavior
	WitnessErr error
	// StreamRejectedAt is the raw index of the first event whose prefix has
	// a cyclic SG (-1 when streaming was skipped or every prefix passed);
	// StreamCycle is that prefix's certificate.
	StreamRejectedAt int
	StreamCycle      *core.Cycle
}

// SeriallyCorrect reports whether the trace passed the checker and, if a
// witness was attempted, the witness construction too.
func (v *Verdict) SeriallyCorrect() bool {
	return v.Check != nil && v.Check.OK && v.WitnessErr == nil
}

// Options configures RunAndCheck beyond the workload and runner options.
type Options struct {
	Workload workload.Config
	Generic  generic.Options
	// SkipWitness disables the serial-witness construction (it needs the
	// program and costs another pass).
	SkipWitness bool
	// ValidateWitness additionally re-validates the witness as a serial
	// behavior and compares projections; implied by property tests.
	ValidateWitness bool
	// AuditSuitability runs the quadratic §2.3.2 suitability audit.
	AuditSuitability bool
	// Streaming additionally replays the trace through the incremental
	// checker, recording the shortest prefix with a cyclic SG.
	Streaming bool
}

// RunAndCheck executes the full pipeline. Runner errors (non-quiescence)
// are returned as errors; checker failures are reported in the Verdict.
func RunAndCheck(opts Options) (*Verdict, error) {
	tr := tname.NewTree()
	root := workload.Build(tr, opts.Workload)
	trace, stats, err := generic.Run(tr, root, opts.Generic)
	if err != nil {
		return nil, fmt.Errorf("harness: generic run: %w", err)
	}
	v := &Verdict{Tree: tr, Trace: trace, Root: root, Stats: stats, StreamRejectedAt: -1}
	// One pooled Checker serves both the streaming replay and the batch
	// check; its scratch state is reused between the two passes. The Result
	// outlives the Checker safely because no further calls follow.
	c := core.NewChecker(tr)
	if opts.Streaming {
		v.StreamRejectedAt, v.StreamCycle = c.StreamPrefix(trace)
	}
	v.Check = c.Check(trace)
	if !v.Check.OK {
		return v, nil
	}
	if opts.AuditSuitability {
		if err := core.AuditSuitability(tr, trace, v.Check.Certificate.Order); err != nil {
			v.WitnessErr = err
			return v, nil
		}
	}
	if opts.SkipWitness {
		return v, nil
	}
	gamma, err := serial.Witness(tr, root, trace, v.Check.Certificate.Order)
	if err != nil {
		v.WitnessErr = err
		return v, nil
	}
	v.Witness = gamma
	if opts.ValidateWitness {
		if err := serial.Validate(tr, gamma); err != nil {
			v.WitnessErr = fmt.Errorf("harness: witness not a serial behavior: %w", err)
		}
	}
	return v, nil
}

// RunSerialAndCheck runs a workload under the serial scheduler (the
// specification system) and checks the resulting behavior — an oracle test
// for the checker: serial behaviors must always pass.
func RunSerialAndCheck(cfg workload.Config, seed int64, abortProb float64, maxAborts int) (*Verdict, error) {
	tr := tname.NewTree()
	root := workload.Build(tr, cfg)
	trace, err := serial.Run(tr, root, serial.Options{Seed: seed, AbortProb: abortProb, MaxAborts: maxAborts})
	if err != nil {
		return nil, fmt.Errorf("harness: serial run: %w", err)
	}
	v := &Verdict{Tree: tr, Trace: trace, Root: root, StreamRejectedAt: -1}
	v.Check = core.Check(tr, trace)
	return v, nil
}

// Describe renders a short human-readable summary of the verdict.
func (v *Verdict) Describe() string {
	s := fmt.Sprintf("events=%d commits=%d aborts=%d accesses=%d blockedPolls=%d victims=%d",
		v.Stats.Events, v.Stats.Commits, v.Stats.Aborts, v.Stats.Accesses, v.Stats.Blocked, v.Stats.DeadlockVictims)
	if v.Check != nil {
		s += " | " + v.Check.Summary(v.Tree)
	}
	if v.WitnessErr != nil {
		s += " | witness: " + v.WitnessErr.Error()
	} else if v.Witness != nil {
		s += fmt.Sprintf(" | witness: %d events, γ|T0 = β|T0", len(v.Witness))
	}
	return s
}
