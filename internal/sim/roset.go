package sim

import (
	"fmt"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// committedTimeline replays the final stitched log exactly like the
// server's snapshot store: granted register writes accumulate per open
// top-level transaction, aborts discard the aborted subtree's writes, and
// a top-level COMMIT publishes the survivors last-write-per-object. It
// returns the successive committed states — entry 0 is the initial state
// (every register holds its init value) and each later entry is the state
// after one state-changing top-level commit. Call only after Shutdown:
// the tree must be quiescent.
func (s *sim) committedTimeline() []map[tname.ObjID]spec.Value {
	tr := s.srv.Tree()
	type pend struct {
		writer tname.TxID
		obj    tname.ObjID
		val    spec.Value
	}
	topOf := func(tx tname.TxID) tname.TxID {
		if tr.Parent(tx) == tname.Root {
			return tx
		}
		return tr.ChildAncestor(tname.Root, tx)
	}
	pending := make(map[tname.TxID][]pend)
	state := map[tname.ObjID]spec.Value{}
	timeline := []map[tname.ObjID]spec.Value{state}
	for _, e := range s.srv.Log() {
		switch e.Kind {
		case event.RequestCommit:
			if e.Tx == tname.Root || !tr.IsAccess(e.Tx) {
				continue
			}
			op := tr.AccessOp(e.Tx)
			if !spec.IsWrite(op) {
				continue
			}
			top := topOf(e.Tx)
			pending[top] = append(pending[top], pend{writer: e.Tx, obj: tr.AccessObject(e.Tx), val: op.Arg})
		case event.Abort:
			if e.Tx == tname.Root {
				continue
			}
			if tr.Parent(e.Tx) == tname.Root {
				delete(pending, e.Tx)
				continue
			}
			top := topOf(e.Tx)
			kept := pending[top][:0]
			for _, w := range pending[top] {
				if w.writer != e.Tx && !tr.IsDescendant(w.writer, e.Tx) {
					kept = append(kept, w)
				}
			}
			pending[top] = kept
		case event.Commit:
			if e.Tx == tname.Root || tr.Parent(e.Tx) != tname.Root {
				continue
			}
			ws := pending[e.Tx]
			delete(pending, e.Tx)
			if len(ws) == 0 {
				continue
			}
			next := make(map[tname.ObjID]spec.Value, len(state)+len(ws))
			for k, v := range state {
				next[k] = v
			}
			for _, w := range ws {
				next[w.obj] = w.val // pend is in log order: last write wins
			}
			state = next
			timeline = append(timeline, state)
		default:
		}
	}
	return timeline
}

// finalState renders the last timeline entry keyed by object label, with
// every configured object present (init value when never written).
func (s *sim) finalState(timeline []map[tname.ObjID]spec.Value) map[string]spec.Value {
	tr := s.srv.Tree()
	last := timeline[len(timeline)-1]
	init := spec.Register{}.Init().(spec.Value)
	out := make(map[string]spec.Value, len(s.objs))
	for _, label := range s.objs {
		val := init
		if obj := tr.Object(label); obj != tname.NoObj {
			if v, ok := last[obj]; ok {
				val = v
			}
		}
		out[label] = val
	}
	return out
}

// validateROSets proves the snapshot-isolation property for every
// completed read-only transaction of every incarnation: its whole read set
// must equal the committed state of SOME prefix of the final stitched log,
// i.e. some timeline entry serves every read in the set.
func (s *sim) validateROSets(timeline []map[tname.ObjID]spec.Value) error {
	if len(s.roSets) == 0 {
		return nil
	}
	tr := s.srv.Tree()
	init := spec.Register{}.Init().(spec.Value)
	for si, set := range s.roSets {
		matched := false
		for _, state := range timeline {
			if roSetMatches(tr, set, state, init) {
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("read-only read set %d (%d reads, first %s=%s) matches no committed log prefix",
				si, len(set), set[0].obj, set[0].val)
		}
	}
	return nil
}

func roSetMatches(tr *tname.Tree, set []roRead, state map[tname.ObjID]spec.Value, init spec.Value) bool {
	for _, rd := range set {
		want := init
		if obj := tr.Object(rd.obj); obj != tname.NoObj {
			if v, ok := state[obj]; ok {
				want = v
			}
		}
		if rd.val != want {
			return false
		}
	}
	return true
}
