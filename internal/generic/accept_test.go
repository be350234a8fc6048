package generic

import (
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// TestAcceptorAcceptsRunBehaviors: every behavior the generic controller
// produces is one, so an Acceptor over fresh automata of the same protocol
// accepts each of them, aborts and orphans included, and ends with the
// completions the behavior logged.
func TestAcceptorAcceptsRunBehaviors(t *testing.T) {
	for _, p := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		for seed := int64(0); seed < 12; seed++ {
			tr := tname.NewTree()
			root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 6, Depth: 2, Fanout: 3,
				Objects: 2, HotProb: 0.6, ParProb: 0.8, ReadRatio: 0.4})
			b, _, err := Run(tr, root, Options{Seed: seed, Protocol: p, AbortProb: 0.05, MaxAborts: 3,
				AllowOrphans: seed%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			objs := make([]object.Generic, tr.NumObjects())
			for x := range objs {
				objs[x] = p.New(tr, tname.ObjID(x))
			}
			a := NewAcceptor(tr, objs)
			informs := 0
			for i, e := range b {
				if err := a.Step(i, e); err != nil {
					t.Fatalf("%s seed %d: %v", p.Name(), seed, err)
				}
				if e.Kind == event.InformCommit || e.Kind == event.InformAbort {
					informs++
				}
				if e.Kind.IsCompletion() && a.Completion(e.Tx) != e.Kind {
					t.Fatalf("%s seed %d: event %d completes %d, the acceptor says %v", p.Name(), seed, i, e.Tx, a.Completion(e.Tx))
				}
			}
			if informs == 0 {
				t.Fatalf("%s seed %d: the behavior holds no INFORM to check", p.Name(), seed)
			}
		}
	}
}
