package generic

import (
	"fmt"
	"slices"
	"testing"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// wakeProbe is one object's automaton with a check after every call into
// it: it holds, for each pending access, the witness the runner would hold
// while the access is parked, and drops it when object.Generic's wake
// clause says the call can unblock the access. An access whose witness is
// held through a call must still be blocked, with that witness still among
// its Blockers and ShouldAbort still false. An access without a held
// witness is asked again, and the witness Blocked names must be among its
// Blockers, or tname.None. It forwards everything the runner asks, so the
// run takes the steps it takes unprobed. The first difference is kept in
// *diff.
type wakeProbe struct {
	object.Generic
	tr   *tname.Tree
	x    tname.ObjID
	diff *string
	// pending are the accesses created and not granted, in creation order.
	pending []tname.TxID
	// held maps a pending access to the witness held for it.
	held map[tname.TxID]tname.TxID
}

func (p *wakeProbe) fail(format string, args ...any) {
	if *p.diff == "" {
		*p.diff = p.tr.ObjectLabel(p.x) + ": " + fmt.Sprintf(format, args...)
	}
}

// after checks every pending access after call what(t), which lets go the
// held witnesses that are a descendant-or-self of u (u other than
// tname.None), or all of them.
func (p *wakeProbe) after(what string, t tname.TxID, all bool, u tname.TxID) {
	for _, a := range p.pending {
		blockers := p.Blockers([]tname.TxID{a}, nil)
		if wit, ok := p.held[a]; ok && !all && (u == tname.None || !p.tr.IsAncestor(u, wit)) {
			_, blocked := p.Blocked(a)
			if !blocked || !slices.Contains(blockers, wit) || p.ShouldAbort(a) {
				p.fail("%s(%s) let %s go past its witness %s (blocked %v, blockers %v)",
					what, p.tr.Name(t), p.tr.Name(a), p.tr.Name(wit), blocked, p.names(blockers))
			}
			continue
		}
		delete(p.held, a)
		wit, blocked := p.Blocked(a)
		switch {
		case !blocked && wit != tname.None:
			p.fail("after %s(%s), unblocked %s names witness %s", what, p.tr.Name(t), p.tr.Name(a), p.tr.Name(wit))
		case blocked && wit != tname.None && !slices.Contains(blockers, wit):
			p.fail("after %s(%s), %s names witness %s outside its blockers %v",
				what, p.tr.Name(t), p.tr.Name(a), p.tr.Name(wit), p.names(blockers))
		case blocked && wit != tname.None && !p.ShouldAbort(a):
			p.held[a] = wit
		}
	}
}

func (p *wakeProbe) names(ids []tname.TxID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = p.tr.Name(id)
	}
	return out
}

func (p *wakeProbe) Create(t tname.TxID) {
	p.Generic.Create(t)
	p.pending = append(p.pending, t)
	p.after("Create", t, false, tname.None)
}

func (p *wakeProbe) InformCommit(t tname.TxID) {
	p.Generic.InformCommit(t)
	p.after("InformCommit", t, false, t)
}

func (p *wakeProbe) InformAbort(t tname.TxID) {
	p.Generic.InformAbort(t)
	p.after("InformAbort", t, false, t)
}

func (p *wakeProbe) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	v, ok := p.Generic.TryRequestCommit(t)
	if ok {
		p.pending = slices.DeleteFunc(p.pending, func(u tname.TxID) bool { return u == t })
		delete(p.held, t)
	}
	p.after("TryRequestCommit", t, !ok, tname.None)
	return v, ok
}

func (p *wakeProbe) ShouldAbort(t tname.TxID) bool {
	ab, ok := p.Generic.(object.Aborter)
	return ok && ab.ShouldAbort(t)
}

func (p *wakeProbe) Audit() error {
	if au, ok := p.Generic.(object.Auditor); ok {
		return au.Audit()
	}
	return nil
}

// wakeProbeProtocol wraps every object of inner in a wakeProbe.
type wakeProbeProtocol struct {
	inner object.Protocol
	diff  *string
}

func (p wakeProbeProtocol) Name() string { return p.inner.Name() }

func (p wakeProbeProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	return &wakeProbe{Generic: p.inner.New(tr, x), tr: tr, x: x, diff: p.diff, held: map[tname.TxID]tname.TxID{}}
}

// wakeCase is one row of the wake-clause table: a protocol of the pinned
// matrix on one data type.
type wakeCase struct {
	proto pinnedProtocol
	spec  string
}

// wakeCases are the pinned matrix's protocols, KeepAbortState included,
// each on registers and on the mixed types where it supports them.
func wakeCases() []wakeCase {
	var cases []wakeCase
	for _, proto := range append(slices.Clone(pinnedProtocols), keepAbortStateProtocol) {
		for _, sp := range slices.Compact([]string{"register", proto.spec}) {
			cases = append(cases, wakeCase{proto, sp})
		}
	}
	return cases
}

// TestInformChangesOnlyRelatedAnswers holds every row of wakeCases to the
// wake clause of object.Generic over the pinned workloads and option sets.
func TestInformChangesOnlyRelatedAnswers(t *testing.T) {
	for _, c := range wakeCases() {
		for o := range pinnedOptions {
			for seed := int64(0); seed < 12; seed++ {
				var diff string
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 8, Depth: 2, Fanout: 3,
					Objects: 3, SpecName: c.spec, HotProb: 0.5, ParProb: 0.7})
				opts := pinnedOptions[o]
				opts.Seed = seed*7919 + 1
				opts.Protocol = wakeProbeProtocol{inner: c.proto.make(tr, seed), diff: &diff}
				// Some cells end in an error, as the pinned matrix records
				// (mvto with orphans does not quiesce); the answers up to
				// it are still held to the clause.
				_, _, _ = Run(tr, root, opts)
				if diff != "" {
					t.Fatalf("%s/%s/%d/%d: %s", c.proto.name, c.spec, o, seed, diff)
				}
			}
		}
	}
}
