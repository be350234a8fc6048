package generic

import (
	"slices"
	"testing"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// createProbe is one object's automaton with a check around every Create:
// the Blocked, ShouldAbort and Blockers answers about every other pending
// access at the object must be the same just after the Create as just
// before it (the Create contract of object.Generic, which lets the runner
// keep the object's epoch and its parked waiters). It forwards the
// optional interfaces, answering as the runner does for an automaton
// without them, so the run takes the steps it takes unprobed. The first
// difference is kept in *diff.
type createProbe struct {
	tr   *tname.Tree
	g    object.Generic
	diff *string
	// pending are the accesses created and not granted, in creation order.
	pending []tname.TxID
}

// answer is what the probe asks about one access.
type answer struct {
	blocked, abort bool
	blockers       []tname.TxID
}

func (p *createProbe) answers() []answer {
	out := make([]answer, len(p.pending))
	for i, t := range p.pending {
		_, blocked := p.g.Blocked(t)
		out[i] = answer{blocked: blocked, abort: p.ShouldAbort(t),
			blockers: sorted(p.g.Blockers([]tname.TxID{t}, nil), false)}
	}
	return out
}

func (p *createProbe) Create(t tname.TxID) {
	before := p.answers()
	p.g.Create(t)
	for i, a := range p.answers() {
		b := before[i]
		if a.blocked != b.blocked || a.abort != b.abort || !slices.Equal(a.blockers, b.blockers) {
			if *p.diff == "" {
				*p.diff = "Create(" + p.tr.Name(t) + ") changed the answers about " + p.tr.Name(p.pending[i])
			}
		}
	}
	p.pending = append(p.pending, t)
}

func (p *createProbe) InformCommit(t tname.TxID) { p.g.InformCommit(t) }
func (p *createProbe) InformAbort(t tname.TxID)  { p.g.InformAbort(t) }

func (p *createProbe) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	v, ok := p.g.TryRequestCommit(t)
	if ok {
		p.pending = slices.DeleteFunc(p.pending, func(u tname.TxID) bool { return u == t })
	}
	return v, ok
}

func (p *createProbe) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	return p.g.Blockers(ts, out)
}

func (p *createProbe) Blocked(t tname.TxID) (tname.TxID, bool) { return p.g.Blocked(t) }

func (p *createProbe) ShouldAbort(t tname.TxID) bool {
	ab, ok := p.g.(object.Aborter)
	return ok && ab.ShouldAbort(t)
}

func (p *createProbe) Audit() error {
	if au, ok := p.g.(object.Auditor); ok {
		return au.Audit()
	}
	return nil
}

// createProbeProtocol wraps every object of inner in a createProbe.
type createProbeProtocol struct {
	inner object.Protocol
	diff  *string
}

func (p createProbeProtocol) Name() string { return p.inner.Name() }

func (p createProbeProtocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	return &createProbe{tr: tr, g: p.inner.New(tr, x), diff: p.diff}
}

// TestCreateChangesNoOtherAnswer holds every automaton of the pinned
// matrix, KeepAbortState included, to the Create contract over the pinned
// workloads and option sets.
func TestCreateChangesNoOtherAnswer(t *testing.T) {
	for _, proto := range append(slices.Clone(pinnedProtocols), keepAbortStateProtocol) {
		for o := range pinnedOptions {
			for seed := int64(0); seed < 12; seed++ {
				var diff string
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 8, Depth: 2, Fanout: 3,
					Objects: 3, SpecName: proto.spec, HotProb: 0.5, ParProb: 0.7})
				opts := pinnedOptions[o]
				opts.Seed = seed*7919 + 1
				opts.Protocol = createProbeProtocol{inner: proto.make(tr, seed), diff: &diff}
				// Some cells end in an error, as the pinned matrix records
				// (mvto with orphans does not quiesce); the answers up to
				// it are still held to the contract.
				_, _, _ = Run(tr, root, opts)
				if diff != "" {
					t.Fatalf("%s/%d/%d: %s", proto.name, o, seed, diff)
				}
			}
		}
	}
}
