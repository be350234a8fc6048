package generic

import (
	"fmt"
	"strings"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// TestAcceptorAcceptsRunBehaviors: every behavior the generic controller
// produces is one, so Accept over fresh automata of the same protocol
// accepts each of them, aborts and orphans included.
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
			if err := Accept(tr, b, p); err != nil {
				t.Fatalf("%s seed %d: %v", p.Name(), seed, err)
			}
			informs := 0
			for _, e := range b {
				if e.Kind == event.InformCommit || e.Kind == event.InformAbort {
					informs++
				}
			}
			if informs == 0 {
				t.Fatalf("%s seed %d: the behavior holds no INFORM to check", p.Name(), seed)
			}
		}
	}
}

// TestAcceptRejects has one row per rule of the generic system: a class of
// the well-formedness axioms, an INFORM rule of the controller, or a rule
// of an object automaton (Moss locking here). Each row is a minimal log
// that breaks its own rule at its last event and no other: Accept takes
// the log without its last event and refuses the whole log at that event,
// naming the rule.
func TestAcceptRejects(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	tx := tr.Child(tname.Root, "t")
	u := tr.Child(tname.Root, "u")
	w := tr.Access(tx, "w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
	rd := tr.Access(tx, "r", x, spec.Op{Kind: spec.OpRead})
	uw := tr.Access(u, "w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)})
	const unknown tname.TxID = 99

	ev := event.NewEvent
	val := event.NewValEvent
	log := func(es ...event.Event) event.Behavior {
		return append(event.Behavior{ev(event.Create, tname.Root)}, es...)
	}
	// open(t) requests and creates t; done(t, v) runs t, with no children,
	// through its commit.
	open := func(t tname.TxID) []event.Event {
		return []event.Event{ev(event.RequestCreate, t), ev(event.Create, t)}
	}
	done := func(t tname.TxID, v spec.Value) []event.Event {
		return append(open(t), val(event.RequestCommit, t, v), ev(event.Commit, t))
	}
	cat := func(parts ...[]event.Event) []event.Event {
		var out []event.Event
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	aborted := []event.Event{ev(event.RequestCreate, tx), ev(event.Abort, tx)}

	for _, row := range []struct {
		rule string
		b    event.Behavior
		msg  string
	}{
		// The controller's rules: the well-formedness axioms, a row a
		// class, then the two INFORM rules.
		{"a serial action names a known transaction", log(ev(event.RequestCreate, unknown)),
			"names unknown transaction"},
		{"CREATE follows REQUEST_CREATE", log(ev(event.Create, tx)),
			"CREATE without prior REQUEST_CREATE"},
		{"REQUEST_CREATE by a created parent", log(ev(event.RequestCreate, tx), ev(event.RequestCreate, w)),
			"parent not created"},
		{"REQUEST_COMMIT after every child reports", log(cat(open(tx), []event.Event{
			ev(event.RequestCreate, w), val(event.RequestCommit, tx, spec.OK)})...),
			"REQUEST_COMMIT with 1 unreported children"},
		{"COMMIT follows REQUEST_COMMIT", log(cat(open(tx), []event.Event{ev(event.Commit, tx)})...),
			"COMMIT without REQUEST_COMMIT"},
		{"ABORT follows REQUEST_CREATE", log(ev(event.Abort, tx)),
			"ABORT without REQUEST_CREATE"},
		{"one completion", log(cat(aborted, []event.Event{ev(event.Abort, tx)})...),
			"second completion event"},
		{"REPORT_COMMIT follows COMMIT", log(cat(open(tx), []event.Event{val(event.ReportCommit, tx, spec.OK)})...),
			"REPORT_COMMIT without COMMIT"},
		{"REPORT_COMMIT reports the requested value", log(cat(done(tx, spec.OK), []event.Event{val(event.ReportCommit, tx, spec.Int(3))})...),
			"does not match requested"},
		{"REPORT_ABORT follows ABORT", log(cat(done(tx, spec.OK), []event.Event{ev(event.ReportAbort, tx)})...),
			"REPORT_ABORT without ABORT"},
		{"one report", log(cat(aborted, []event.Event{ev(event.ReportAbort, tx), ev(event.ReportAbort, tx)})...),
			"second report"},
		{"INFORM_COMMIT follows COMMIT", log(cat(open(tx), []event.Event{event.NewInform(event.InformCommit, tx, x)})...),
			"breaks rule INFORM_COMMIT: no earlier COMMIT"},
		{"INFORM_COMMIT follows COMMIT, not ABORT", log(cat(aborted, []event.Event{event.NewInform(event.InformCommit, tx, x)})...),
			"breaks rule INFORM_COMMIT: no earlier COMMIT"},
		{"INFORM_ABORT follows ABORT", log(cat(open(tx), []event.Event{event.NewInform(event.InformAbort, tx, x)})...),
			"breaks rule INFORM_ABORT: no earlier ABORT"},
		{"INFORM_ABORT follows ABORT, not COMMIT", log(cat(done(tx, spec.OK), []event.Event{event.NewInform(event.InformAbort, tx, x)})...),
			"breaks rule INFORM_ABORT: no earlier ABORT"},
		{"an INFORM names a known object", log(cat(aborted, []event.Event{event.NewInform(event.InformAbort, tx, x+1)})...),
			"names an unknown transaction or object"},

		// The object rules: a REQUEST_COMMIT of an access is an enabled
		// output of its object's automaton, with the logged value.
		{"a grant the automaton makes", log(cat(open(tx), done(w, spec.OK), open(u), open(uw),
			[]event.Event{val(event.RequestCommit, uw, spec.OK)})...),
			"not grantable at its logged position"},
		{"a grant with the value the automaton returns", log(cat(open(tx), open(rd),
			[]event.Event{val(event.RequestCommit, rd, spec.Int(5))})...),
			"replays to"},
	} {
		t.Run(row.rule, func(t *testing.T) {
			p := locking.Protocol{}
			last := len(row.b) - 1
			if err := Accept(tr, row.b[:last], p); err != nil {
				t.Fatalf("the log without its last event is refused: %v", err)
			}
			err := Accept(tr, row.b, p)
			if err == nil {
				t.Fatalf("accepted:\n%s", row.b.Format(tr))
			}
			if at := fmt.Sprintf("event %d", last); !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), row.msg) {
				t.Fatalf("refused with %q, want %q at %s", err, row.msg, at)
			}
		})
	}
}
