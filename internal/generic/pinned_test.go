package generic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/replica"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// pinnedProtocols are the automata of the pinned matrix: every faithful
// protocol the runner drives, plus the broken variants, whose traces
// exercise the victim and abort paths hardest. spec is the workload's data
// type (mvto and replica support registers only). Moss's KeepAbortState
// variant is left out, so that the digest stays the one made before that
// variant became deterministic; TestKeepAbortStateDeterministic holds it
// to its seed instead.
var pinnedProtocols = []struct {
	name string
	spec string
	make func(tr *tname.Tree, seed int64) object.Protocol
}{
	{"moss", "mixed", func(*tname.Tree, int64) object.Protocol { return locking.Protocol{} }},
	{"undolog", "mixed", func(*tname.Tree, int64) object.Protocol { return undolog.Protocol{} }},
	{"mvto", "register", func(tr *tname.Tree, _ int64) object.Protocol { return mvto.NewProtocol(tr) }},
	{"mvto-strict", "register", func(tr *tname.Tree, _ int64) object.Protocol { return mvto.NewStrictProtocol(tr) }},
	{"replica", "register", func(_ *tname.Tree, seed int64) object.Protocol {
		return replica.Protocol{Cfg: replica.Config{Copies: 3, ReadQuorum: 2, WriteQuorum: 2,
			UnavailableProb: 0.3, Seed: seed}}
	}},
	{"moss-broken-readlocks", "register", func(*tname.Tree, int64) object.Protocol {
		return locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}
	}},
	{"moss-broken-noinh", "register", func(*tname.Tree, int64) object.Protocol {
		return locking.BrokenProtocol{Mode: locking.NoInheritance}
	}},
	{"undolog-broken-noundo", "mixed", func(*tname.Tree, int64) object.Protocol {
		return undolog.BrokenProtocol{Mode: undolog.NoUndo}
	}},
	{"undolog-broken-commute", "mixed", func(*tname.Tree, int64) object.Protocol {
		return undolog.BrokenProtocol{Mode: undolog.SkipCommute}
	}},
}

// pinnedOptions are the option sets of the pinned matrix; Seed and
// Protocol are filled per run.
var pinnedOptions = []Options{
	{},
	{AbortProb: 0.05, MaxAborts: 3},
	{EagerDeadlock: true},
	{AllowOrphans: true, AbortProb: 0.05, MaxAborts: 3},
	{AuditObjects: true, AbortProb: 0.03, MaxAborts: 2},
}

// pinnedRun runs one cell of the matrix and writes its trace (NSGB) and
// Stats, or its error, into h.
func pinnedRun(h hash.Hash, p, o int, seed int64) {
	proto := pinnedProtocols[p]
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 8, Depth: 2, Fanout: 3,
		Objects: 3, SpecName: proto.spec, HotProb: 0.5, ParProb: 0.7})
	opts := pinnedOptions[o]
	opts.Seed = seed*7919 + 1
	opts.Protocol = proto.make(tr, seed)
	b, st, err := Run(tr, root, opts)
	fmt.Fprintf(h, "%s/%d/%d:", proto.name, o, seed)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	h.Write(event.MarshalBinaryTrace(tr, b))
	fmt.Fprintf(h, "%+v\n", st)
}

// pinnedDigest is the SHA-256 of the whole matrix. It was generated before
// the runner learned to cache enabledness per object epoch; a change to the
// enumeration order, to the random draws or to what an object is asked
// moves it. Regenerate it only for a change that means to alter traces,
// and say so.
const pinnedDigest = "1b6cc8f23f332cf400efadffc3ab640b8478083eb6035a94303e086210cb6d16"

// TestRunTracesPinned holds every seed of a protocol × options × seed
// matrix to the traces and Stats it produced when the digest was made.
func TestRunTracesPinned(t *testing.T) {
	h := sha256.New()
	for p := range pinnedProtocols {
		for o := range pinnedOptions {
			for seed := int64(0); seed < 12; seed++ {
				pinnedRun(h, p, o, seed)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedDigest {
		t.Fatalf("matrix digest = %s, want %s", got, pinnedDigest)
	}
}

// TestEagerDeadlockDeterministicPerSeed: waits-for cycle detection must not
// depend on the order in which objects report blockers (Moss keeps its
// lock holders in maps, whose iteration order Go randomizes on every range).
func TestEagerDeadlockDeterministicPerSeed(t *testing.T) {
	run := func() (event.Behavior, Stats) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: 3, TopLevel: 16, Depth: 1, Fanout: 3,
			Objects: 2, HotProb: 0.6, ParProb: 0.8, ReadRatio: 0.4})
		b, st, err := Run(tr, root, Options{Seed: 3 * 7919, Protocol: locking.Protocol{},
			EagerDeadlock: true})
		if err != nil {
			t.Fatal(err)
		}
		return b, st
	}
	b0, st0 := run()
	if st0.DeadlockVictims == 0 {
		t.Fatal("the shape must need eager victims to test anything")
	}
	for i := 1; i < 8; i++ {
		b, st := run()
		if !b.Equal(b0) || st != st0 {
			t.Fatalf("repeat %d: the same seed gave a different trace (victims %d vs %d)",
				i, st.DeadlockVictims, st0.DeadlockVictims)
		}
	}
}

// TestKeepAbortStateDeterministic: Moss's KeepAbortState variant merges the
// state of the deepest aborted write-lockholder, not whichever one its lock
// map yields last, so the same seed gives the same trace. The shape is the
// negative-control experiment's, aborts injected over one hot object, with
// the tree three deep, where an abort finds two holders below it.
func TestKeepAbortStateDeterministic(t *testing.T) {
	run := func(seed int64) (event.Behavior, Stats, error) {
		tr := tname.NewTree()
		root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 6, Depth: 3, Fanout: 3,
			Objects: 1, HotProb: 1, ParProb: 0.8, ReadRatio: 0.35, SpecName: "register"})
		return Run(tr, root, Options{Seed: seed * 977, AbortProb: 0.15, MaxAborts: 30,
			Protocol: locking.BrokenProtocol{Mode: locking.KeepAbortState}})
	}
	for seed := int64(0); seed < 12; seed++ {
		b0, st0, err0 := run(seed)
		for i := 1; i < 8; i++ {
			b, st, err := run(seed)
			if fmt.Sprint(err) != fmt.Sprint(err0) || !b.Equal(b0) || st != st0 {
				t.Fatalf("seed %d, repeat %d: the same seed gave a different trace (%d vs %d events, err %v vs %v)",
					seed, i, len(b), len(b0), err, err0)
			}
		}
	}
}
