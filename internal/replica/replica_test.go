package replica

import (
	"testing"

	"nestedsg/internal/generic"
	"nestedsg/internal/harness"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

func cfg(n, r, w int, p float64) Config {
	return Config{Copies: n, ReadQuorum: r, WriteQuorum: w, UnavailableProb: p, Seed: 7}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{cfg(1, 1, 1, 0), cfg(3, 2, 2, 0), cfg(5, 3, 3, 0), cfg(5, 2, 4, 0)}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := []Config{cfg(3, 1, 2, 0), cfg(0, 1, 1, 0), cfg(3, 4, 2, 0), cfg(3, 2, 0, 0)}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: expected error", c)
		}
	}
}

type fix struct {
	tr     *tname.Tree
	x      tname.ObjID
	t1, t2 tname.TxID
	w1, r2 tname.TxID
	r      *Replicated
}

func newFix(t *testing.T, c Config) *fix {
	t.Helper()
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	f := &fix{tr: tr, x: x}
	f.t1 = tr.Child(tname.Root, "t1")
	f.t2 = tr.Child(tname.Root, "t2")
	f.w1 = tr.Access(f.t1, "w1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(5)})
	f.r2 = tr.Access(f.t2, "r2", x, spec.Op{Kind: spec.OpRead})
	f.r = New(tr, x, c)
	return f
}

func TestWriteInstallsIntoQuorumOnTopCommit(t *testing.T) {
	f := newFix(t, cfg(5, 3, 3, 0))
	f.r.Create(f.w1)
	if _, ok := f.r.TryRequestCommit(f.w1); !ok {
		t.Fatal("write grant")
	}
	// Nothing installed while the value is tentative.
	if _, vers := f.r.Copies(); maxOf(vers) != 0 {
		t.Fatal("tentative write must not touch the copies")
	}
	f.r.InformCommit(f.w1) // chain: w1 → t1
	if _, vers := f.r.Copies(); maxOf(vers) != 0 {
		t.Fatal("still tentative at t1")
	}
	f.r.InformCommit(f.t1) // t1 → T0: install
	_, vers := f.r.Copies()
	updated := 0
	for _, v := range vers {
		if v == 1 {
			updated++
		}
	}
	if updated != 3 {
		t.Fatalf("installed on %d copies, want write quorum 3", updated)
	}
	if err := f.r.Audit(); err != nil {
		t.Fatal(err)
	}
	// A later read quorum must see version 1 regardless of which copies
	// were skipped (R+W>N).
	f.r.Create(f.r2)
	if v, ok := f.r.TryRequestCommit(f.r2); !ok || v != spec.Int(5) {
		t.Fatalf("quorum read = %v, %v", v, ok)
	}
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestAbortDiscardsTentativeValue(t *testing.T) {
	f := newFix(t, cfg(3, 2, 2, 0))
	f.r.Create(f.w1)
	if _, ok := f.r.TryRequestCommit(f.w1); !ok {
		t.Fatal("write grant")
	}
	f.r.InformAbort(f.t1)
	f.r.Create(f.r2)
	if v, ok := f.r.TryRequestCommit(f.r2); !ok || v != spec.Int(0) {
		t.Fatalf("read after abort = %v, %v; copies must be untouched", v, ok)
	}
	if f.r.Installs != 0 {
		t.Fatal("aborted write must never install")
	}
}

func TestLockDisciplineMatchesMoss(t *testing.T) {
	f := newFix(t, cfg(3, 2, 2, 0))
	f.r.Create(f.w1)
	f.r.Create(f.r2)
	if _, ok := f.r.TryRequestCommit(f.w1); !ok {
		t.Fatal("write grant")
	}
	if _, ok := f.r.TryRequestCommit(f.r2); ok {
		t.Fatal("reader must block behind the uncommitted writer")
	}
	if blk := f.r.Blockers([]tname.TxID{f.r2}, nil); len(blk) != 1 || blk[0] != f.w1 {
		t.Fatalf("blockers = %v", blk)
	}
	f.r.InformCommit(f.w1)
	f.r.InformCommit(f.t1)
	if v, ok := f.r.TryRequestCommit(f.r2); !ok || v != spec.Int(5) {
		t.Fatalf("read = %v, %v", v, ok)
	}
}

func TestUnavailabilityDelaysButResolves(t *testing.T) {
	f := newFix(t, cfg(3, 2, 2, 0.6))
	f.r.Create(f.r2)
	granted := false
	for attempt := 0; attempt < 200 && !granted; attempt++ {
		if v, ok := f.r.TryRequestCommit(f.r2); ok {
			granted = true
			if v != spec.Int(0) {
				t.Fatalf("read = %v", v)
			}
		}
	}
	if !granted {
		t.Fatal("read never assembled a quorum in 200 attempts at p=0.6")
	}
	if f.r.QuorumFailures == 0 {
		t.Log("no quorum failure observed (possible but unlikely at p=0.6)")
	}
}

func TestVersionsIncreaseAcrossWriters(t *testing.T) {
	f := newFix(t, cfg(3, 2, 2, 0))
	w2 := f.tr.Access(f.t2, "w2", f.x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(9)})
	// t1 writes and fully commits; then t2 writes and fully commits.
	f.r.Create(f.w1)
	f.r.TryRequestCommit(f.w1)
	f.r.InformCommit(f.w1)
	f.r.InformCommit(f.t1)
	f.r.Create(w2)
	if _, ok := f.r.TryRequestCommit(w2); !ok {
		t.Fatal("w2 grant")
	}
	f.r.InformCommit(w2)
	f.r.InformCommit(f.t2)
	_, vers := f.r.Copies()
	if maxOf(vers) != 2 {
		t.Fatalf("max version = %d, want 2", maxOf(vers))
	}
	if err := f.r.Audit(); err != nil {
		t.Fatal(err)
	}
	// A reader now sees 9.
	r3 := f.tr.Access(f.tr.Child(tname.Root, "t3"), "r3", f.x, spec.Op{Kind: spec.OpRead})
	f.r.Create(r3)
	if v, ok := f.r.TryRequestCommit(r3); !ok || v != spec.Int(9) {
		t.Fatalf("read = %v, %v", v, ok)
	}
}

// TestReplicaRunsSeriallyCorrect sweeps quorum configurations and
// availability under the full pipeline: every run must be serially correct
// for T0 with the copies' quorum invariant audited at every step.
func TestReplicaRunsSeriallyCorrect(t *testing.T) {
	configs := []Config{
		cfg(1, 1, 1, 0),   // degenerate single copy
		cfg(3, 2, 2, 0),   // majority quorums
		cfg(3, 2, 2, 0.3), // with failures
		cfg(5, 2, 4, 0.2), // read-optimized
		cfg(5, 4, 2, 0.2), // write-optimized
	}
	for _, c := range configs {
		c := c
		t.Run((Protocol{Cfg: c}).Name(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				cc := c
				cc.Seed = seed * 97
				v, err := harness.RunAndCheck(harness.Options{
					Workload: workload.Config{Seed: seed, TopLevel: 5, Depth: 1, Fanout: 3,
						Objects: 2, HotProb: 0.6, ParProb: 0.7},
					Generic: generic.Options{Seed: seed*11 + 1, Protocol: Protocol{Cfg: cc},
						AbortProb: 0.02, MaxAborts: 4, AuditObjects: true},
					ValidateWitness: true,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !v.SeriallyCorrect() {
					t.Fatalf("seed %d: %s", seed, v.Describe())
				}
			}
		})
	}
}

func TestPanicsOnBadConfigOrType(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	assertPanics(t, "bad quorum", func() { New(tr, x, cfg(3, 1, 1, 0)) })
	c := tr.AddObject("c", spec.Counter{})
	assertPanics(t, "bad type", func() { New(tr, c, cfg(3, 2, 2, 0)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
