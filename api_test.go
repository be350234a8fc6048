package nestedsg_test

import (
	"testing"

	"nestedsg"
)

// TestPublicAPIRoundTrip exercises the facade exactly the way the README's
// quickstart does: build, run under both protocols, check, witness.
func TestPublicAPIRoundTrip(t *testing.T) {
	for _, proto := range []nestedsg.Protocol{nestedsg.MossLocking(), nestedsg.UndoLogging()} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			tr := nestedsg.NewTree()
			x := tr.AddObject("x", nestedsg.SpecByName("register"))
			c := tr.AddObject("c", nestedsg.SpecByName("counter"))

			root := nestedsg.Par("T0",
				nestedsg.Seq("writer",
					nestedsg.Access("w", x, nestedsg.WriteOp(7)),
					nestedsg.Access("i", c, nestedsg.IncOp(1)),
				),
				nestedsg.Seq("reader",
					nestedsg.Access("r", x, nestedsg.ReadOp()),
					nestedsg.Access("g", c, nestedsg.GetOp()),
				),
			)

			trace, st, err := nestedsg.Run(tr, root, nestedsg.RunOptions{Seed: 99, Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			if st.Accesses != 4 {
				t.Errorf("accesses = %d", st.Accesses)
			}
			res := nestedsg.Check(tr, trace)
			if !res.OK {
				t.Fatalf("check failed: %s", res.Summary(tr))
			}
			if at, cyc := nestedsg.StreamCheck(tr, trace); at >= 0 {
				t.Fatalf("streaming check rejected a certified trace at %d: %v", at, cyc)
			}
			inc := nestedsg.NewIncrementalChecker(tr)
			for _, e := range trace {
				if cyc := inc.Append(e); cyc != nil {
					t.Fatalf("incremental checker rejected a certified trace: %s", cyc.Format(tr))
				}
			}
			gamma, err := nestedsg.SerialWitness(tr, root, trace, res.Certificate)
			if err != nil {
				t.Fatal(err)
			}
			if err := nestedsg.ValidateSerial(tr, gamma); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunSerialOracle: the serial runner through the facade produces
// checkable behaviors.
func TestRunSerialOracle(t *testing.T) {
	tr := nestedsg.NewTree()
	a := tr.AddObject("acct", nestedsg.SpecByName("account"))
	root := nestedsg.Par("T0",
		nestedsg.Seq("t1", nestedsg.Access("d", a, nestedsg.DepositOp(10))),
		nestedsg.Seq("t2",
			nestedsg.Access("w", a, nestedsg.WithdrawOp(5)),
			nestedsg.Access("b", a, nestedsg.BalanceOp()),
		),
	)
	trace, err := nestedsg.RunSerial(tr, root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := nestedsg.ValidateSerial(tr, trace); err != nil {
		t.Fatal(err)
	}
	if res := nestedsg.Check(tr, trace); !res.OK {
		t.Fatalf("check: %s", res.Summary(tr))
	}
}

// TestOpConstructors spot-checks every exported op constructor against its
// specification.
func TestOpConstructors(t *testing.T) {
	tr := nestedsg.NewTree()
	cases := []struct {
		specName string
		ops      []nestedsg.Op
	}{
		{"register", []nestedsg.Op{nestedsg.WriteOp(1), nestedsg.ReadOp()}},
		{"counter", []nestedsg.Op{nestedsg.IncOp(2), nestedsg.DecOp(1), nestedsg.GetOp()}},
		{"account", []nestedsg.Op{nestedsg.DepositOp(5), nestedsg.WithdrawOp(3), nestedsg.BalanceOp()}},
		{"set", []nestedsg.Op{nestedsg.InsertOp(1), nestedsg.MemberOp(1), nestedsg.RemoveOp(1), nestedsg.SizeOp()}},
		{"appendlog", []nestedsg.Op{nestedsg.AppendOp(3), nestedsg.LenOp()}},
		{"queue", []nestedsg.Op{nestedsg.EnqOp(1), nestedsg.DeqOp()}},
	}
	for _, c := range cases {
		sp := nestedsg.SpecByName(c.specName)
		if sp == nil {
			t.Fatalf("SpecByName(%q) = nil", c.specName)
		}
		st := sp.Init()
		for _, op := range c.ops {
			st, _ = sp.Apply(st, op) // must not panic: every op is supported
		}
		_ = tr
	}
	if len(nestedsg.Specs()) != 6 {
		t.Errorf("Specs() = %d entries", len(nestedsg.Specs()))
	}
}

// TestValueConstructors checks the exported value helpers.
func TestValueConstructors(t *testing.T) {
	if nestedsg.IntValue(3).Int != 3 {
		t.Error("IntValue")
	}
	if !nestedsg.BoolValue(true).AsBool() {
		t.Error("BoolValue")
	}
	if nestedsg.OKValue().String() != "OK" {
		t.Error("OKValue")
	}
}

// TestExtensionProtocols exercises the quorum-replication and multiversion
// facade constructors end to end.
func TestExtensionProtocols(t *testing.T) {
	t.Run("replication", func(t *testing.T) {
		tr := nestedsg.NewTree()
		x := tr.AddObject("x", nestedsg.SpecByName("register"))
		root := nestedsg.Par("T0",
			nestedsg.Seq("w", nestedsg.Access("wr", x, nestedsg.WriteOp(3))),
			nestedsg.Seq("r", nestedsg.Access("rd", x, nestedsg.ReadOp())),
		)
		trace, _, err := nestedsg.Run(tr, root, nestedsg.RunOptions{
			Seed: 2,
			Protocol: nestedsg.QuorumReplication(nestedsg.ReplicaConfig{
				Copies: 3, ReadQuorum: 2, WriteQuorum: 2, UnavailableProb: 0.2, Seed: 5}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := nestedsg.Check(tr, trace); !res.OK {
			t.Fatalf("check: %s", res.Summary(tr))
		}
	})
	t.Run("mvto", func(t *testing.T) {
		tr := nestedsg.NewTree()
		x := tr.AddObject("x", nestedsg.SpecByName("register"))
		root := nestedsg.Par("T0",
			nestedsg.Seq("w", nestedsg.Access("wr", x, nestedsg.WriteOp(3))),
			nestedsg.Seq("r", nestedsg.Access("rd", x, nestedsg.ReadOp())),
		)
		trace, _, err := nestedsg.Run(tr, root, nestedsg.RunOptions{
			Seed: 2, Protocol: nestedsg.MultiversionTimestamps(tr),
		})
		if err != nil {
			t.Fatal(err)
		}
		// MVTO traces need not pass the event-order checker; they must at
		// least be well-formed behaviors with both transactions done.
		commits := trace.CommitSet()
		if len(commits) == 0 {
			t.Fatal("nothing committed")
		}
	})
}

// TestEventKindConstants: the re-exported kinds match the internal ones
// observable through traces.
func TestEventKindConstants(t *testing.T) {
	tr := nestedsg.NewTree()
	x := tr.AddObject("x", nestedsg.SpecByName("register"))
	root := nestedsg.Par("T0", nestedsg.Seq("t", nestedsg.Access("w", x, nestedsg.WriteOp(1))))
	trace, _, err := nestedsg.Run(tr, root, nestedsg.RunOptions{Seed: 1, Protocol: nestedsg.MossLocking()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range trace {
		switch e.Kind {
		case nestedsg.EventCreate:
			seen["create"] = true
		case nestedsg.EventRequestCreate:
			seen["reqcreate"] = true
		case nestedsg.EventRequestCommit:
			seen["reqcommit"] = true
		case nestedsg.EventCommit:
			seen["commit"] = true
		case nestedsg.EventReportCommit:
			seen["report"] = true
		}
	}
	for _, k := range []string{"create", "reqcreate", "reqcommit", "commit", "report"} {
		if !seen[k] {
			t.Errorf("kind %s not observed", k)
		}
	}
}
