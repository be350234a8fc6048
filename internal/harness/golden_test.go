package harness

import (
	"os"
	"path/filepath"
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// golden pins the checker's observable semantics on committed trace files:
// if a change to the conflict relation, the visibility rules or the graph
// construction alters the verdict or the edge counts on these traces, the
// test fails and the change needs a conscious decision. The two labels are
// counted apart (an edge carrying both counts in both) because they move
// for different reasons: conflict edges with the conflict relation,
// visibility and the generating set core.conflictFrontier keeps, precedes
// edges with the generating set core.frontier keeps.
type golden struct {
	file                      string
	edges, conflict, precedes int
}

var goldens = []golden{
	{"golden_moss.json", 19, 11, 10},
	{"golden_undolog.json", 21, 9, 12},
}

func TestGoldenTracesStillCertify(t *testing.T) {
	for _, g := range goldens {
		g := g
		t.Run(g.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, b, err := event.ReadTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			res := core.Check(tr, b)
			if !res.OK {
				t.Fatalf("golden trace no longer certifies: %s", res.Summary(tr))
			}
			var conflict, precedes int
			res.SG.ForEachParent(func(_ tname.TxID, pg *core.ParentGraph) {
				for _, e := range pg.Edges() {
					if e.Kind&core.EdgeConflict != 0 {
						conflict++
					}
					if e.Kind&core.EdgePrecedes != 0 {
						precedes++
					}
				}
			})
			if conflict != g.conflict {
				t.Errorf("conflict edges: got %d, committed as %d — the conflict relation, the visibility rules or the conflict frontier (core.conflictFrontier) moved", conflict, g.conflict)
			}
			if precedes != g.precedes {
				t.Errorf("precedes edges: got %d, committed as %d — the precedes frontier (core.frontier) moved", precedes, g.precedes)
			}
			if got := res.SG.NumEdges(); got != g.edges {
				t.Errorf("distinct edges: got %d, committed as %d (conflict %d, precedes %d)", got, g.edges, conflict, precedes)
			}
			if err := core.AuditSuitability(tr, b, res.Certificate.Order); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenTraceRegeneration: the runner is deterministic, so the golden
// traces must be exactly reproducible from their generation parameters.
// This pins the scheduler's and workload generator's determinism across
// refactorings.
func TestGoldenTraceRegeneration(t *testing.T) {
	t.Run("golden_moss.json", func(t *testing.T) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: 12345, TopLevel: 5, Depth: 2,
			Fanout: 3, Objects: 3, ParProb: 0.6, RetryProb: 0.4, CondProb: 0.4})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: 12345,
			Protocol: locking.Protocol{}, AbortProb: 0.02, MaxAborts: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesGolden(t, "golden_moss.json", tr, b)
	})
	t.Run("golden_undolog.json", func(t *testing.T) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: 777, TopLevel: 4, Depth: 2,
			Fanout: 3, Objects: 6, SpecName: "mixed", ParProb: 0.5})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: 777, Protocol: undolog.Protocol{}})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesGolden(t, "golden_undolog.json", tr, b)
	})
}

func assertMatchesGolden(t *testing.T, file string, tr *tname.Tree, b event.Behavior) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	goldTr, goldB, err := event.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTx() != goldTr.NumTx() {
		t.Fatalf("transaction count drifted: %d vs golden %d", tr.NumTx(), goldTr.NumTx())
	}
	if !b.Equal(goldB) {
		t.Fatalf("regenerated trace differs from golden (%d vs %d events) — scheduler or workload determinism broke",
			len(b), len(goldB))
	}
}
