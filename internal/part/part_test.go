package part_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/part"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// protocolBehavior runs a locking workload and returns its event trace —
// a well-formed, certifiable behavior.
func protocolBehavior(t testing.TB, wseed, rseed int64) (*tname.Tree, event.Behavior) {
	t.Helper()
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: wseed, TopLevel: 6, Depth: 2,
		Fanout: 3, Objects: 4, ParProb: 0.6})
	b, _, err := generic.Run(tr, root, generic.Options{Seed: rseed, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	return tr, b
}

func TestOwnerDeterministicAndTotal(t *testing.T) {
	labels := []string{"", "x", "y", "account-17", "registera", "counterc", "setb"}
	for _, l := range labels {
		if got := part.Owner(l, 1); got != 0 {
			t.Fatalf("Owner(%q, 1) = %d", l, got)
		}
		for _, p := range []int{2, 4, 8} {
			a, b := part.Owner(l, p), part.Owner(l, p)
			if a != b {
				t.Fatalf("Owner(%q, %d) unstable: %d vs %d", l, p, a, b)
			}
			if a < 0 || a >= p {
				t.Fatalf("Owner(%q, %d) = %d out of range", l, p, a)
			}
		}
	}
	// The map must actually spread: over many labels every partition of 4
	// owns something.
	hit := make([]bool, 4)
	for i := 0; i < 64; i++ {
		hit[part.Owner(fmt.Sprintf("obj-%d", i), 4)] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("partition %d owns none of 64 labels — degenerate map", i)
		}
	}
}

// verifyDifferential is the core acceptance check: for each P the primed
// composed certificate must match the batch construction byte-for-byte,
// with agreeing acyclicity verdicts.
func verifyDifferential(t testing.TB, tr *tname.Tree, b event.Behavior, ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 2, 4}
	}
	want := core.Build(tr, b)
	wantDOT := want.DOT()
	_, wantCyc := want.Acyclicity()
	for _, p := range ps {
		c := part.New(part.Config{Partitions: p, Tree: tr})
		c.Prime(b)
		if got := c.Snapshot().DOT(); got != wantDOT {
			t.Fatalf("P=%d: composed certificate diverges from batch Build:\n--- composed ---\n%s\n--- batch ---\n%s",
				p, got, wantDOT)
		}
		if c.Cyclic() != (wantCyc != nil) {
			t.Fatalf("P=%d: composed cyclic=%v, batch cyclic=%v", p, c.Cyclic(), wantCyc != nil)
		}
	}
}

func TestPartitionedMatchesBatchOnProtocolTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr, b := protocolBehavior(t, seed, seed*7+1)
		verifyDifferential(t, tr, b, 1, 2, 4, 8)
	}
}

func TestPartitionedMatchesBatchOnRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 30; i++ {
		tr, names := randomSystem(rng)
		b := randomEvents(rng, tr, names, 25+rng.Intn(50))
		verifyDifferential(t, tr, b)
	}
}

// TestResetReplays: Reset + Prime over the same tree reproduces the same
// certificate.
func TestResetReplays(t *testing.T) {
	tr, b := protocolBehavior(t, 3, 5)
	c := part.New(part.Config{Partitions: 4, Tree: tr})
	c.Prime(b)
	first := c.Snapshot().DOT()
	c.Reset()
	if sg := c.Snapshot(); sg.NumParents() != 0 || sg.NumEdges() != 0 || c.Cyclic() {
		t.Fatalf("reset left %d parents, %d edges, cyclic %v", sg.NumParents(), sg.NumEdges(), c.Cyclic())
	}
	c.Prime(b)
	if got := c.Snapshot().DOT(); got != first {
		t.Fatalf("post-reset certificate diverges:\n%s\n%s", got, first)
	}
}
