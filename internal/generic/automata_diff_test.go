package generic

import (
	"fmt"
	"slices"
	"testing"

	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// automaton is what the differential drives: a generic object with an
// invariant audit.
type automaton interface {
	object.Generic
	object.Auditor
}

// refAutomaton is what the reference automata offer: their Blocked
// answers whether the access is blocked and names no witness.
type refAutomaton interface {
	Create(t tname.TxID)
	InformCommit(t tname.TxID)
	InformAbort(t tname.TxID)
	TryRequestCommit(t tname.TxID) (spec.Value, bool)
	Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID
	Blocked(t tname.TxID) bool
	object.Auditor
}

// lockstep is one object driven as two automata at once: got, the
// package's, whose answers the runner acts on, and want, the parent's
// reference copy. Every input goes to both, and every answer is compared:
// TryRequestCommit's value and ok, Blocked, Blockers (as a multiset for
// one access, as a set for several), and after each input the Audit
// verdict and the union: got's Blockers over every pending access against
// the union of want's per-access Blockers, as sets. The first difference
// is kept in *diff.
type lockstep struct {
	tr   *tname.Tree
	got  automaton
	want refAutomaton
	diff *string
	// pending are the accesses created and not granted, in creation order.
	pending []tname.TxID
}

// sorted returns a sorted copy of s, without repeats if set.
func sorted(s []tname.TxID, set bool) []tname.TxID {
	s = slices.Clone(s)
	slices.Sort(s)
	if set {
		s = slices.Compact(s)
	}
	return s
}

func (l *lockstep) fail(format string, args ...any) {
	if *l.diff == "" {
		*l.diff = fmt.Sprintf(format, args...)
	}
}

// audit compares the two automata's invariant verdicts, and the union of
// the pending accesses' blockers, after input what.
func (l *lockstep) audit(what string, t tname.TxID) {
	if g, w := l.got.Audit(), l.want.Audit(); (g == nil) != (w == nil) {
		l.fail("Audit after %s(%s) = %v, reference %v", what, l.tr.Name(t), g, w)
	}
	var w []tname.TxID
	for _, p := range l.pending {
		w = l.want.Blockers([]tname.TxID{p}, w)
	}
	g := sorted(l.got.Blockers(l.pending, nil), true)
	if w = sorted(w, true); !slices.Equal(g, w) {
		l.fail("after %s(%s), Blockers of the %d pending = %v, reference union %v",
			what, l.tr.Name(t), len(l.pending), g, w)
	}
}

func (l *lockstep) Create(t tname.TxID) {
	l.got.Create(t)
	l.want.Create(t)
	l.pending = append(l.pending, t)
	l.audit("Create", t)
}

func (l *lockstep) InformCommit(t tname.TxID) {
	l.got.InformCommit(t)
	l.want.InformCommit(t)
	l.audit("InformCommit", t)
}

func (l *lockstep) InformAbort(t tname.TxID) {
	l.got.InformAbort(t)
	l.want.InformAbort(t)
	l.audit("InformAbort", t)
}

func (l *lockstep) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	v, ok := l.got.TryRequestCommit(t)
	wv, wok := l.want.TryRequestCommit(t)
	if v != wv || ok != wok {
		l.fail("TryRequestCommit(%s) = %s, %v; reference %s, %v", l.tr.Name(t), v, ok, wv, wok)
	}
	if ok {
		l.pending = slices.DeleteFunc(l.pending, func(p tname.TxID) bool { return p == t })
	}
	l.audit("TryRequestCommit", t)
	return v, ok
}

func (l *lockstep) Blocked(t tname.TxID) (tname.TxID, bool) {
	wit, b := l.got.Blocked(t)
	if w := l.want.Blocked(t); b != w {
		l.fail("Blocked(%s) = %v, reference %v", l.tr.Name(t), b, w)
	}
	return wit, b
}

func (l *lockstep) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	n := len(out)
	out = l.got.Blockers(ts, out)
	set := len(ts) > 1
	g, w := sorted(out[n:], set), sorted(l.want.Blockers(ts, nil), set)
	if !slices.Equal(g, w) {
		l.fail("Blockers(%d accesses) = %v, reference %v", len(ts), g, w)
	}
	return out
}

func (l *lockstep) Audit() error { return l.got.Audit() }

// lockstepProtocol builds a lockstep object per object of the system.
type lockstepProtocol struct {
	got  func(tr *tname.Tree, x tname.ObjID) automaton
	want func(tr *tname.Tree, x tname.ObjID) refAutomaton
	diff *string
}

func (lockstepProtocol) Name() string { return "lockstep" }

func (p lockstepProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	return &lockstep{tr: tr, got: p.got(tr, x), want: p.want(tr, x), diff: p.diff}
}

// automataPairs are the automata of the differential, each beside the
// parent's reference with the same broken flag set.
var automataPairs = []struct {
	name string
	got  func(tr *tname.Tree, x tname.ObjID) automaton
	want func(tr *tname.Tree, x tname.ObjID) refAutomaton
}{
	{"moss",
		func(tr *tname.Tree, x tname.ObjID) automaton { return locking.NewMoss(tr, x) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton { return newRefMoss(tr, x) }},
	{"moss-broken-readlocks",
		func(tr *tname.Tree, x tname.ObjID) automaton { return brokenMoss(tr, x, locking.IgnoreReadLocks) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton {
			m := newRefMoss(tr, x)
			m.brokenIgnoreReadLocks = true
			return m
		}},
	{"moss-broken-noinh",
		func(tr *tname.Tree, x tname.ObjID) automaton { return brokenMoss(tr, x, locking.NoInheritance) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton {
			m := newRefMoss(tr, x)
			m.brokenNoInheritance = true
			return m
		}},
	{"moss-broken-recovery",
		func(tr *tname.Tree, x tname.ObjID) automaton { return brokenMoss(tr, x, locking.KeepAbortState) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton {
			m := newRefMoss(tr, x)
			m.brokenKeepAbortState = true
			return m
		}},
	{"undolog",
		func(tr *tname.Tree, x tname.ObjID) automaton { return undolog.New(tr, x) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton { return newRefUndo(tr, x) }},
	{"undolog-broken-noundo",
		func(tr *tname.Tree, x tname.ObjID) automaton { return brokenUndo(tr, x, undolog.NoUndo) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton {
			u := newRefUndo(tr, x)
			u.brokenNoUndo = true
			return u
		}},
	{"undolog-broken-commute",
		func(tr *tname.Tree, x tname.ObjID) automaton { return brokenUndo(tr, x, undolog.SkipCommute) },
		func(tr *tname.Tree, x tname.ObjID) refAutomaton {
			u := newRefUndo(tr, x)
			u.brokenSkipCommute = true
			return u
		}},
}

func brokenMoss(tr *tname.Tree, x tname.ObjID, mode locking.BrokenMode) automaton {
	return locking.BrokenProtocol{Mode: mode}.New(tr, x).(automaton)
}

func brokenUndo(tr *tname.Tree, x tname.ObjID, mode undolog.BrokenMode) automaton {
	return undolog.BrokenProtocol{Mode: mode}.New(tr, x).(automaton)
}

// TestAutomataMatchReference runs every automaton pair in lockstep over the
// pinned matrix's workloads and option sets, on registers and on the mixed
// types, and requires the two to answer every query alike.
func TestAutomataMatchReference(t *testing.T) {
	for _, pair := range automataPairs {
		for _, specName := range []string{"register", "mixed"} {
			for o := range pinnedOptions {
				for seed := int64(0); seed < 12; seed++ {
					var diff string
					tr := tname.NewTree()
					root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 8, Depth: 2, Fanout: 3,
						Objects: 3, SpecName: specName, HotProb: 0.5, ParProb: 0.7})
					opts := pinnedOptions[o]
					opts.Seed = seed*7919 + 1
					opts.Protocol = lockstepProtocol{got: pair.got, want: pair.want, diff: &diff}
					_, _, err := Run(tr, root, opts)
					if diff != "" {
						t.Fatalf("%s/%s/%d/%d: %s", pair.name, specName, o, seed, diff)
					}
					if err != nil {
						t.Fatalf("%s/%s/%d/%d: %v", pair.name, specName, o, seed, err)
					}
				}
			}
		}
	}
}
