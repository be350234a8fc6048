// Benchmarks: one per experiment table of EXPERIMENTS.md (E1–E16, E24, E25, E45). Each
// benchmark exercises the hot path of its experiment under testing.B so
// the tables' cost columns can be regenerated with:
//
//	go test -bench=. -benchmem
//
// The correctness assertions mirror the experiment definitions: a theorem
// benchmark fails the run if any iteration violates the theorem.
package nestedsg_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"nestedsg/internal/classic"
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/harness"
	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/oracle"
	"nestedsg/internal/program"
	"nestedsg/internal/replica"
	"nestedsg/internal/serial"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

func specRegister() spec.Spec { return spec.Register{} }
func specCounter() spec.Spec  { return spec.Counter{} }

func workloadWriteOp(v int64) spec.Op { return spec.Op{Kind: spec.OpWrite, Arg: spec.Int(v)} }
func workloadIncOp() spec.Op          { return spec.Op{Kind: spec.OpIncrement, Arg: spec.Int(1)} }

// BenchmarkE1MossSerialCorrectness measures the full Theorem 17 pipeline:
// one concurrent Moss run plus checking and witnessing per iteration.
func BenchmarkE1MossSerialCorrectness(b *testing.B) {
	violations := 0
	for i := 0; i < b.N; i++ {
		v, err := harness.RunAndCheck(harness.Options{
			Workload: workload.Config{Seed: int64(i), TopLevel: 5, Depth: 2, Fanout: 3,
				Objects: 3, ParProb: 0.5},
			Generic: generic.Options{Seed: int64(i) * 31, Protocol: locking.Protocol{},
				AbortProb: 0.01, MaxAborts: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !v.SeriallyCorrect() {
			violations++
		}
	}
	if violations > 0 {
		b.Fatalf("%d violations of Theorem 17", violations)
	}
}

// BenchmarkE2UndoLogSerialCorrectness is the Theorem 25 analogue over
// mixed data types.
func BenchmarkE2UndoLogSerialCorrectness(b *testing.B) {
	violations := 0
	for i := 0; i < b.N; i++ {
		v, err := harness.RunAndCheck(harness.Options{
			Workload: workload.Config{Seed: int64(i), TopLevel: 5, Depth: 2, Fanout: 3,
				Objects: 6, SpecName: "mixed", ParProb: 0.5},
			Generic: generic.Options{Seed: int64(i)*31 + 7, Protocol: undolog.Protocol{},
				AbortProb: 0.01, MaxAborts: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !v.SeriallyCorrect() {
			violations++
		}
	}
	if violations > 0 {
		b.Fatalf("%d violations of Theorem 25", violations)
	}
}

// BenchmarkE3NegativeControls measures detection cost on broken-protocol
// runs and reports the detection rate.
func BenchmarkE3NegativeControls(b *testing.B) {
	flagged := 0
	for i := 0; i < b.N; i++ {
		v, err := harness.RunAndCheck(harness.Options{
			Workload: workload.Config{Seed: int64(i), TopLevel: 5, Depth: 1, Fanout: 3,
				Objects: 1, HotProb: 1, ParProb: 0.8, ReadRatio: 0.4},
			Generic: generic.Options{Seed: int64(i) * 977,
				Protocol: locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}},
			SkipWitness: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !v.Check.OK {
			flagged++
		}
	}
	b.ReportMetric(float64(flagged)/float64(b.N), "detected/op")
}

// BenchmarkE4Commutativity compares the two protocols on a hot counter
// (the §6 motivation); the interesting column is blocked-polls/op.
func BenchmarkE4Commutativity(b *testing.B) {
	for _, proto := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		proto := proto
		b.Run(proto.Name(), func(b *testing.B) {
			blocked, victims := 0, 0
			for i := 0; i < b.N; i++ {
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 8,
					Depth: 0, Fanout: 4, Objects: 1, HotProb: 1, SpecName: "counter"})
				_, st, err := generic.Run(tr, root, generic.Options{Seed: int64(i) * 17, Protocol: proto})
				if err != nil {
					b.Fatal(err)
				}
				blocked += st.Blocked
				victims += st.DeadlockVictims
			}
			b.ReportMetric(float64(blocked)/float64(b.N), "blocked-polls/op")
			b.ReportMetric(float64(victims)/float64(b.N), "victims/op")
		})
	}
}

// prebuiltTrace generates one Moss trace for the checker-cost benchmarks.
func prebuiltTrace(b *testing.B, topLevel int) (*tname.Tree, *program.Node, event.Behavior) {
	b.Helper()
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 42, TopLevel: topLevel, Depth: 1,
		Fanout: 3, Objects: 4, HotProb: 0.3, ParProb: 0.5})
	trace, _, err := generic.Run(tr, root, generic.Options{Seed: 99, Protocol: locking.Protocol{}})
	if err != nil {
		b.Fatal(err)
	}
	return tr, root, trace
}

// BenchmarkE5SGConstruction measures SG(β) build + acyclicity against
// history length.
func BenchmarkE5SGConstruction(b *testing.B) {
	for _, topLevel := range []int{4, 16, 64} {
		topLevel := topLevel
		b.Run(fmt.Sprintf("toplevel=%d", topLevel), func(b *testing.B) {
			tr, _, trace := prebuiltTrace(b, topLevel)
			b.ReportMetric(float64(len(trace)), "events")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sg := core.Build(tr, trace)
				if _, cyc := sg.Acyclicity(); cyc != nil {
					b.Fatal("unexpected cycle")
				}
			}
		})
	}
}

// BenchmarkE6ClassicalEquivalence measures the flat-history subsumption
// check: one run, both graph constructions, and the comparison.
func BenchmarkE6ClassicalEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 6, Depth: 0,
			Fanout: 3, Objects: 2, HotProb: 0.5})
		trace, _, err := generic.Run(tr, root, generic.Options{Seed: int64(i) * 31, Protocol: locking.Protocol{}})
		if err != nil {
			b.Fatal(err)
		}
		sgt, err := classic.BuildSGT(tr, trace)
		if err != nil {
			b.Fatal(err)
		}
		if msg := sgt.CompareWithNested(tr, core.Build(tr, trace)); msg != "" {
			b.Fatal(msg)
		}
	}
}

// BenchmarkE7CurrentSafe measures the Lemma 6 audit on a prebuilt trace.
func BenchmarkE7CurrentSafe(b *testing.B) {
	tr, _, trace := prebuiltTrace(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads, badWrites := simple.AuditCurrentSafe(tr, trace)
		if len(badWrites) != 0 {
			b.Fatal("bad writes under faithful Moss")
		}
		for _, r := range reads {
			if !r.Current || !r.Safe {
				b.Fatal("read neither current nor safe under faithful Moss")
			}
		}
	}
}

// BenchmarkE8ProtocolOverhead compares end-to-end run cost per protocol on
// identical workloads.
func BenchmarkE8ProtocolOverhead(b *testing.B) {
	cfg := workload.Config{TopLevel: 8, Depth: 1, Fanout: 3, Objects: 4, ParProb: 0.5}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := tname.NewTree()
			c := cfg
			c.Seed = int64(i)
			root := workload.Build(tr, c)
			if _, err := serial.Run(tr, root, serial.Options{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, proto := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		proto := proto
		b.Run(proto.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := tname.NewTree()
				c := cfg
				c.Seed = int64(i)
				root := workload.Build(tr, c)
				if _, _, err := generic.Run(tr, root, generic.Options{Seed: int64(i), Protocol: proto}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9DeadlockFailure measures Moss under high contention with
// failure injection; reports deadlock victims per run.
func BenchmarkE9DeadlockFailure(b *testing.B) {
	victims, aborts := 0, 0
	for i := 0; i < b.N; i++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 8, Depth: 1,
			Fanout: 3, Objects: 2, HotProb: 1, ParProb: 0.8, ReadRatio: 0.4})
		_, st, err := generic.Run(tr, root, generic.Options{Seed: int64(i) * 7919,
			Protocol: locking.Protocol{}, AbortProb: 0.03, MaxAborts: 8})
		if err != nil {
			b.Fatal(err)
		}
		victims += st.DeadlockVictims
		aborts += st.Aborts
	}
	b.ReportMetric(float64(victims)/float64(b.N), "victims/op")
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts/op")
}

// BenchmarkE10WitnessReplay measures serial-witness materialization on a
// prebuilt checked trace.
func BenchmarkE10WitnessReplay(b *testing.B) {
	for _, topLevel := range []int{8, 32} {
		topLevel := topLevel
		b.Run(fmt.Sprintf("toplevel=%d", topLevel), func(b *testing.B) {
			tr, root, trace := prebuiltTrace(b, topLevel)
			res := core.Check(tr, trace)
			if !res.OK {
				b.Fatal(res.Summary(tr))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := serial.Witness(tr, root, trace, res.Certificate.Order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks for the per-object automata: the cost of one access
// decision.

// BenchmarkMossAccessDecision measures TryRequestCommit + inform cycles on
// the locking automaton.
func BenchmarkMossAccessDecision(b *testing.B) {
	tr := tname.NewTree()
	x := tr.AddObject("x", specRegister())
	top := tr.Child(tname.Root, "t")
	accs := make([]tname.TxID, b.N)
	for i := range accs {
		accs[i] = tr.Access(top, fmt.Sprintf("a%d", i), x, workloadWriteOp(int64(i)))
	}
	m := locking.NewMoss(tr, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Create(accs[i])
		if _, ok := m.TryRequestCommit(accs[i]); !ok {
			b.Fatal("write blocked unexpectedly")
		}
		m.InformCommit(accs[i])
		m.InformCommit(top) // keeps the chain at T0, so the next access is free
	}
}

// BenchmarkUndoAccessDecision measures the undo-log commutativity gate at
// bounded log lengths. The gate scans the log, so cost is linear in log
// size — exactly the compaction need the paper notes ("practical
// implementations would need to compact the information in the operations
// log"); the sub-benchmarks show the slope.
func BenchmarkUndoAccessDecision(b *testing.B) {
	for _, logLen := range []int{16, 256} {
		logLen := logLen
		b.Run(fmt.Sprintf("log=%d", logLen), func(b *testing.B) {
			tr := tname.NewTree()
			x := tr.AddObject("c", specCounter())
			top := tr.Child(tname.Root, "t")
			warm := make([]tname.TxID, logLen)
			for i := range warm {
				warm[i] = tr.Access(top, fmt.Sprintf("w%d", i), x, workloadIncOp())
			}
			accs := make([]tname.TxID, b.N)
			for i := range accs {
				accs[i] = tr.Access(top, fmt.Sprintf("a%d", i), x, workloadIncOp())
			}
			fresh := func() *undolog.Undo {
				u := undolog.New(tr, x)
				for _, id := range warm {
					u.Create(id)
					if _, ok := u.TryRequestCommit(id); !ok {
						b.Fatal("warmup inc blocked")
					}
					u.InformCommit(id)
				}
				return u
			}
			u := fresh()
			sinceRebuild := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Create(accs[i])
				if _, ok := u.TryRequestCommit(accs[i]); !ok {
					b.Fatal("inc blocked unexpectedly")
				}
				u.InformCommit(accs[i])
				sinceRebuild++
				if sinceRebuild == logLen {
					// Keep the measured log length in [logLen, 2·logLen).
					b.StopTimer()
					u = fresh()
					sinceRebuild = 0
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkE11OracleSearch measures the exhaustive-order oracle on small
// traces (the conservatism experiment).
func BenchmarkE11OracleSearch(b *testing.B) {
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 3, TopLevel: 4, Depth: 1,
		Fanout: 2, Objects: 1, HotProb: 1, ParProb: 0.9})
	trace, _, err := generic.Run(tr, root, generic.Options{Seed: 13, Protocol: locking.Protocol{}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.Search(tr, trace, 200000)
		if res.Outcome != oracle.Found {
			b.Fatalf("oracle outcome %s on a Moss trace", res.Outcome)
		}
	}
}

// BenchmarkE12OrphanActivity measures the cost of letting orphans run.
func BenchmarkE12OrphanActivity(b *testing.B) {
	for _, allow := range []bool{false, true} {
		allow := allow
		name := "frozen"
		if allow {
			name = "running"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 5,
					Depth: 2, Fanout: 3, Objects: 2, HotProb: 0.6, ParProb: 0.7})
				_, _, err := generic.Run(tr, root, generic.Options{Seed: int64(i)*577 + 3,
					Protocol: locking.Protocol{}, AbortProb: 0.04, MaxAborts: 6, AllowOrphans: allow})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13MultiversionGap measures one MVTO run plus the oracle
// certification.
func BenchmarkE13MultiversionGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 4, Depth: 1,
			Fanout: 2, Objects: 2, HotProb: 0.8, ParProb: 0.9, ReadRatio: 0.6})
		trace, _, err := generic.Run(tr, root, generic.Options{Seed: int64(i)*13 + 5,
			Protocol: mvto.NewProtocol(tr)})
		if err != nil {
			b.Fatal(err)
		}
		if res := oracle.Search(tr, trace, 500000); res.Outcome != oracle.Found {
			b.Fatalf("oracle outcome %s", res.Outcome)
		}
	}
}

// BenchmarkE14ReplicatedData measures a quorum-replicated run with
// availability failures.
func BenchmarkE14ReplicatedData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: int64(i), TopLevel: 5, Depth: 1,
			Fanout: 3, Objects: 2, HotProb: 0.6, ParProb: 0.7})
		proto := replica.Protocol{Cfg: replica.Config{Copies: 5, ReadQuorum: 3, WriteQuorum: 3,
			UnavailableProb: 0.3, Seed: int64(i) * 131}}
		if _, _, err := generic.Run(tr, root, generic.Options{Seed: int64(i)*17 + 3,
			Protocol: proto, AbortProb: 0.02, MaxAborts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// contendedTrace generates the E15 workload: deep nesting over several
// objects under the Moss protocol.
func contendedTrace(b *testing.B, topLevel int) (*tname.Tree, event.Behavior) {
	b.Helper()
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 42, TopLevel: topLevel, Depth: 2,
		Fanout: 3, Objects: 8, HotProb: 0.3, ParProb: 0.7})
	trace, _, err := generic.Run(tr, root, generic.Options{Seed: 99, Protocol: locking.Protocol{}})
	if err != nil {
		b.Fatal(err)
	}
	return tr, trace
}

// BenchmarkE15StreamingCheck measures the incremental checker's replay of a
// clean trace; the ns/event metric is the streaming cost per event. The
// toplevel rows reuse one pooled engine, warmed by one replay before the
// timer starts, so their B/op is what a replay costs and not the first
// replay's array growth divided by b.N; the fresh row builds a new engine
// per stream and never resets it, which is how every server life starts,
// so its allocations are those of an engine growing its arrays.
func BenchmarkE15StreamingCheck(b *testing.B) {
	perEvent := func(b *testing.B, events int) {
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		}
	}
	for _, topLevel := range []int{8, 32} {
		topLevel := topLevel
		b.Run(fmt.Sprintf("toplevel=%d", topLevel), func(b *testing.B) {
			tr, trace := contendedTrace(b, topLevel)
			b.ReportMetric(float64(len(trace)), "events")
			c := core.NewChecker(tr)
			c.StreamPrefix(trace)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if at, _ := c.StreamPrefix(trace); at >= 0 {
					b.Fatalf("clean Moss trace rejected at %d", at)
				}
			}
			perEvent(b, len(trace))
		})
	}
	b.Run("fresh", func(b *testing.B) {
		tr, trace := contendedTrace(b, 32)
		b.ReportMetric(float64(len(trace)), "events")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc := core.NewIncremental(tr)
			for j, e := range trace {
				if inc.Append(e) != nil {
					b.Fatalf("clean Moss trace rejected at %d", j)
				}
			}
		}
		perEvent(b, len(trace))
	})
}

// denseTrace generates the E15 dense workload: the serial scheduler commits
// every access, so visible operations per event — what the conflict scan
// works on — are at their maximum.
func denseTrace(b *testing.B, topLevel int) (*tname.Tree, event.Behavior) {
	b.Helper()
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 42, TopLevel: topLevel, Depth: 1,
		Fanout: 4, Objects: 8, ParProb: 0.5})
	trace, err := serial.Run(tr, root, serial.Options{Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	return tr, trace
}

// BenchmarkE15BatchBuild measures the batch SG construction — the whole
// behavior streamed through a pooled Checker's engine, then frozen — on
// one dense trace. The Checker is warmed by one build before the timer
// starts, so B/op is what a build costs and not the first build's array
// growth divided by b.N.
func BenchmarkE15BatchBuild(b *testing.B) {
	tr, trace := denseTrace(b, 128)
	want := core.Build(tr, trace).NumEdges()
	c := core.NewChecker(tr)
	c.Build(trace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.Build(trace).NumEdges(); got != want {
			b.Fatalf("edges = %d, want %d", got, want)
		}
	}
}

// BenchmarkE15BatchCheck measures one-shot core.Check — well-formedness,
// SG(β), return values, acyclicity and the views — on the dense trace of
// BenchmarkE15BatchBuild. It is the call Server.Final audits a life with
// and the check workload times.
func BenchmarkE15BatchCheck(b *testing.B) {
	tr, trace := denseTrace(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := core.Check(tr, trace); !res.OK {
			b.Fatal(res.Summary(tr))
		}
	}
}

// BenchmarkE16TraceCodec measures the two trace codecs on one mid-sized
// trace: encode cost, decode cost, and — for the binary format — streaming
// decode feeding the incremental checker without materializing a behavior.
// The encoded sizes are reported as metrics; the rows back the E16 table
// of EXPERIMENTS.md.
func BenchmarkE16TraceCodec(b *testing.B) {
	tr, trace := denseTrace(b, 32)
	var jbuf bytes.Buffer
	if err := event.WriteTrace(&jbuf, tr, trace); err != nil {
		b.Fatal(err)
	}
	jsonData := jbuf.Bytes()
	binData := event.MarshalBinaryTrace(tr, trace)

	b.Run("json-encode", func(b *testing.B) {
		b.ReportMetric(float64(len(jsonData)), "bytes")
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := event.WriteTrace(&buf, tr, trace); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := event.ReadTrace(bytes.NewReader(jsonData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-encode", func(b *testing.B) {
		b.ReportMetric(float64(len(binData)), "bytes")
		for i := 0; i < b.N; i++ {
			event.MarshalBinaryTrace(tr, trace)
		}
	})
	b.Run("binary-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := event.ReadBinaryTrace(bytes.NewReader(binData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-stream-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := event.NewBinaryDecoder(bytes.NewReader(binData))
			if err != nil {
				b.Fatal(err)
			}
			inc := core.NewIncremental(d.Tree())
			for {
				e, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if cyc := inc.Append(e); cyc != nil {
					b.Fatal("clean trace rejected")
				}
			}
		}
	})
}

// sequentialLife is the E24 workload: one client's server life, n top-level
// transactions run one after the other, each reading one of 64 registers.
// The reads do not conflict, so every SG edge is a precedes edge.
func sequentialLife(n int) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	var objs [64]tname.ObjID
	for i := range objs {
		objs[i] = tr.AddObject(fmt.Sprintf("x%d", i), specRegister())
	}
	trace := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	for i := 0; i < n; i++ {
		t := tr.Child(tname.Root, fmt.Sprintf("t%d", i))
		r := tr.Access(t, "r", objs[i%len(objs)], spec.Op{Kind: spec.OpRead})
		trace = append(trace,
			event.NewEvent(event.RequestCreate, t), event.NewEvent(event.Create, t),
			event.NewEvent(event.RequestCreate, r), event.NewEvent(event.Create, r),
			event.NewValEvent(event.RequestCommit, r, spec.Int(0)), event.NewEvent(event.Commit, r),
			event.NewValEvent(event.ReportCommit, r, spec.Int(0)),
			event.NewValEvent(event.RequestCommit, t, spec.Nil), event.NewEvent(event.Commit, t),
			event.NewValEvent(event.ReportCommit, t, spec.Nil))
	}
	return tr, trace
}

// benchLife measures both entry points of the SG engine — Incremental fed
// event by event, and a pooled Checker's batch Build — over one life of tops
// transactions that must yield wantEdges distinct edges. edges/tx is the
// regression signal; each entry point is warmed once so allocs/op is the
// steady state.
func benchLife(b *testing.B, tr *tname.Tree, trace event.Behavior, tops, wantEdges int) {
	report := func(b *testing.B, edges int) {
		if edges != wantEdges {
			b.Fatalf("%d edges for a life of %d transactions, want %d", edges, tops, wantEdges)
		}
		b.ReportMetric(float64(edges)/float64(tops), "edges/tx")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(trace)), "ns/event")
	}
	b.Run("incremental", func(b *testing.B) {
		inc := core.NewIncremental(tr)
		stream := func() {
			inc.Reset()
			for _, e := range trace {
				if inc.Append(e) != nil {
					b.Fatal("life rejected")
				}
			}
		}
		stream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stream()
		}
		b.StopTimer()
		report(b, inc.Snapshot().NumEdges())
	})
	b.Run("build", func(b *testing.B) {
		c := core.NewChecker(tr)
		edges := c.Build(trace).NumEdges()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges = c.Build(trace).NumEdges()
		}
		b.StopTimer()
		report(b, edges)
	})
}

// BenchmarkE24SequentialTops runs a 4 000-transaction sequential life — the
// shape on which the paper's all-pairs precedes relation is quadratic (8 M
// edges here) and the frontier's generating set is the chain.
func BenchmarkE24SequentialTops(b *testing.B) {
	const tops = 4000
	tr, trace := sequentialLife(tops)
	benchLife(b, tr, trace, tops, tops-1)
}

// hotRegisterLife is the E25 workload: one client's server life on one hot
// register — n top-level transactions run one after the other, each a
// single access, four writes to every read.
func hotRegisterLife(n int) (*tname.Tree, event.Behavior) {
	tr := tname.NewTree()
	x := tr.AddObject("x", specRegister())
	trace := event.Behavior{event.NewEvent(event.Create, tname.Root)}
	for i := 0; i < n; i++ {
		t := tr.Child(tname.Root, fmt.Sprintf("t%d", i))
		op, val := workloadWriteOp(int64(i)), spec.OK
		if i%5 == 4 {
			op, val = spec.Op{Kind: spec.OpRead}, spec.Int(int64(i-1))
		}
		a := tr.Access(t, "a", x, op)
		trace = append(trace,
			event.NewEvent(event.RequestCreate, t), event.NewEvent(event.Create, t),
			event.NewEvent(event.RequestCreate, a), event.NewEvent(event.Create, a),
			event.NewValEvent(event.RequestCommit, a, val), event.NewEvent(event.Commit, a),
			event.NewValEvent(event.ReportCommit, a, val),
			event.NewValEvent(event.RequestCommit, t, spec.Nil), event.NewEvent(event.Commit, t),
			event.NewValEvent(event.ReportCommit, t, spec.Nil))
	}
	return tr, trace
}

// BenchmarkE25HotRegister runs a 4 000-transaction life on one register —
// the shape on which the paper's all-pairs conflict relation is quadratic
// (7.7 M pairs here) and the conflict frontier's generating set is the
// chain (conflict and precedes labels on the same pairs) plus, for each
// write that follows a read, the pair from the write before that read.
func BenchmarkE25HotRegister(b *testing.B) {
	const tops = 4000
	tr, trace := hotRegisterLife(tops)
	benchLife(b, tr, trace, tops, tops-1+tops/5-1)
}

// BenchmarkGenericRun is one generic.Run on each of two contended shapes of
// the check workload's corpus (E45): 64 top-level transactions nested three
// deep on 4 objects under Moss locking, and 96 flat ones on 4 objects under
// undo logging, with half the accesses on the hot object. The program is
// built outside the timer; the seeds are fixed, so every iteration takes
// the same steps.
func BenchmarkGenericRun(b *testing.B) {
	shapes := []struct {
		proto object.Protocol
		cfg   workload.Config
	}{
		{locking.Protocol{}, workload.Config{Seed: 7, TopLevel: 64, Depth: 3, Fanout: 3,
			Objects: 4, HotProb: 0.5, ParProb: 0.5}},
		{undolog.Protocol{}, workload.Config{Seed: 7, TopLevel: 96, Depth: 1, Fanout: 3,
			Objects: 4, HotProb: 0.5, ParProb: 0.5}},
	}
	for _, sh := range shapes {
		b.Run(sh.proto.Name(), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := tname.NewTree()
				root := workload.Build(tr, sh.cfg)
				b.StartTimer()
				_, st, err := generic.Run(tr, root, generic.Options{Seed: 11, Protocol: sh.proto})
				if err != nil {
					b.Fatal(err)
				}
				steps += st.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkCheckFresh certifies one NSGB trace from scratch, as the check
// workload does for every trace of its corpus: the batch row decodes the
// whole trace and runs a one-shot core.Check, the stream row decodes event
// by event into a fresh core.NewIncremental. The trace is the corpus shape
// with the most parent graphs — 48 top-level transactions nested three deep
// on 32 objects under undo logging, half the accesses on the hot object —
// so allocs/op shows whatever one-shot certification pays per parent graph.
func BenchmarkCheckFresh(b *testing.B) {
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: 81, TopLevel: 48, Depth: 3, Fanout: 3,
		Objects: 32, HotProb: 0.5, ParProb: 0.5})
	trace, _, err := generic.Run(tr, root, generic.Options{Seed: 82, Protocol: undolog.Protocol{}})
	if err != nil {
		b.Fatal(err)
	}
	data := event.MarshalBinaryTrace(tr, trace)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, trace, err := event.ReadBinaryTrace(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if res := core.Check(tr, trace); !res.OK {
				b.Fatal(res.Summary(tr))
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := event.NewBinaryDecoder(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			inc := core.NewIncremental(d.Tree())
			for {
				e, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if inc.Append(e) != nil {
					b.Fatal("clean trace rejected")
				}
			}
		}
	})
}
