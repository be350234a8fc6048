package simple_test

import (
	"errors"
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// TestWellFormedAxioms has one row per rejecting check of WellFormed.Step:
// a minimal behavior that breaks that axiom and no other, the message the
// check reports and the index of the event it rejects. Disabling any one
// check makes its row fail — with another message, at another index, or
// with no error at all. Every row is also run through core.Check, whose one
// pass over β steps the same checker and must report the same violation.
func TestWellFormedAxioms(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	tx := tr.Child(tname.Root, "t")
	a := tr.Access(tx, "a", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
	const unknown tname.TxID = 99

	ev := event.NewEvent
	val := event.NewValEvent
	root := ev(event.Create, tname.Root)
	// requested, created and commitRequested are the prefixes of t's
	// lifecycle the rows build on.
	requested := []event.Event{root, ev(event.RequestCreate, tx)}
	created := append(requested[:2:2], ev(event.Create, tx))
	commitRequested := append(created[:3:3], val(event.RequestCommit, tx, spec.Int(1)))
	committed := append(commitRequested[:4:4], ev(event.Commit, tx))
	aborted := append(requested[:2:2], ev(event.Abort, tx))
	then := func(prefix []event.Event, es ...event.Event) event.Behavior {
		return append(event.Behavior(prefix[:len(prefix):len(prefix)]), es...)
	}

	for _, c := range []struct {
		name string
		b    event.Behavior
		msg  string
		at   int
	}{
		{"unknown name", then([]event.Event{root}, ev(event.RequestCreate, unknown)),
			"names unknown transaction", 1},
		{"negative name", then([]event.Event{root}, ev(event.RequestCreate, -1)),
			"names unknown transaction", 1},

		{"CREATE before request", then([]event.Event{root}, ev(event.Create, tx)),
			"CREATE without prior REQUEST_CREATE", 1},
		{"CREATE twice", then([]event.Event{root}, root),
			"second CREATE", 1},
		// Only an aborted transaction can be uncreated and complete: a
		// committed one requested commit, which needs a CREATE, so the
		// check's committed half is unreachable.
		{"CREATE after ABORT", then(aborted, ev(event.Create, tx)),
			"CREATE after completion", 3},

		{"REQUEST_CREATE of T0", then([]event.Event{root}, ev(event.RequestCreate, tname.Root)),
			"REQUEST_CREATE of T0", 1},
		{"REQUEST_CREATE twice", then(requested, ev(event.RequestCreate, tx)),
			"second REQUEST_CREATE", 2},
		{"REQUEST_CREATE under an uncreated parent", then(requested, ev(event.RequestCreate, a)),
			"parent not created", 2},
		{"REQUEST_CREATE after the parent's REQUEST_COMMIT", then(commitRequested, ev(event.RequestCreate, a)),
			"parent already requested commit", 4},

		{"REQUEST_COMMIT before CREATE", then(requested, val(event.RequestCommit, tx, spec.Nil)),
			"REQUEST_COMMIT without CREATE", 2},
		{"REQUEST_COMMIT twice", then(commitRequested, val(event.RequestCommit, tx, spec.Int(1))),
			"second REQUEST_COMMIT", 4},
		{"REQUEST_COMMIT with an open child", then(created, ev(event.RequestCreate, a), val(event.RequestCommit, tx, spec.Nil)),
			"REQUEST_COMMIT with 1 unreported children", 4},

		// T0 may request commit; without this check its COMMIT would pass.
		{"COMMIT of T0", then([]event.Event{root}, val(event.RequestCommit, tname.Root, spec.Nil), ev(event.Commit, tname.Root)),
			"COMMIT of T0", 2},
		{"COMMIT before REQUEST_COMMIT", then(created, ev(event.Commit, tx)),
			"COMMIT without REQUEST_COMMIT", 3},
		{"COMMIT twice", then(committed, ev(event.Commit, tx)),
			"second completion event", 5},
		{"COMMIT after ABORT", then(commitRequested, ev(event.Abort, tx), ev(event.Commit, tx)),
			"second completion event", 5},

		// T0 is never requested, so without this check its ABORT is
		// refused all the same, as "ABORT without REQUEST_CREATE": the
		// check only names the violation.
		{"ABORT of T0", then([]event.Event{root}, ev(event.Abort, tname.Root)),
			"ABORT of T0", 1},
		{"ABORT before request", then([]event.Event{root}, ev(event.Abort, tx)),
			"ABORT without REQUEST_CREATE", 1},
		{"ABORT twice", then(aborted, ev(event.Abort, tx)),
			"second completion event", 3},
		{"ABORT after COMMIT", then(committed, ev(event.Abort, tx)),
			"second completion event", 5},

		{"REPORT_COMMIT before COMMIT", then(commitRequested, val(event.ReportCommit, tx, spec.Int(1))),
			"REPORT_COMMIT without COMMIT", 4},
		{"REPORT_COMMIT twice", then(committed, val(event.ReportCommit, tx, spec.Int(1)), val(event.ReportCommit, tx, spec.Int(1))),
			"second report", 6},
		{"REPORT_COMMIT of another value", then(committed, val(event.ReportCommit, tx, spec.Int(2))),
			"REPORT_COMMIT value 2 does not match requested 1", 5},

		{"REPORT_ABORT before ABORT", then(requested, ev(event.ReportAbort, tx)),
			"REPORT_ABORT without ABORT", 2},
		{"REPORT_ABORT twice", then(aborted, ev(event.ReportAbort, tx), ev(event.ReportAbort, tx)),
			"second report", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The behavior without its last event is well-formed: the row
			// breaks the axiom its last event is checked against, and only
			// that one.
			if err := simple.CheckWellFormed(tr, c.b[:len(c.b)-1]); err != nil {
				t.Fatalf("prefix is not well-formed: %v", err)
			}
			check := func(who string, err error) {
				t.Helper()
				var wf *simple.WFError
				if !errors.As(err, &wf) {
					t.Fatalf("%s: got %v, want a WFError %q at %d", who, err, c.msg, c.at)
				}
				if wf.Msg != c.msg || wf.Index != c.at {
					t.Fatalf("%s: WFError %q at %d, want %q at %d", who, wf.Msg, wf.Index, c.msg, c.at)
				}
			}
			check("CheckWellFormed", simple.CheckWellFormed(tr, c.b))
			check("core.Check", core.Check(tr, c.b).WFErr)
		})
	}
}
