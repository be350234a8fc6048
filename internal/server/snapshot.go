package server

import (
	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// snapVersion is one committed state of one object, tagged with the log
// index of the top-level COMMIT event that published it. An object's
// versions form a newest-first list behind sharedObject.versions; a version
// is never mutated once stored, so a reader walks whatever list it loaded
// without any lock.
type snapVersion struct {
	seq   int
	state spec.State
	older *snapVersion
}

// initVersion is an object's first version: its type's initial state, inside
// every cut.
func initVersion(sp spec.Spec) *snapVersion {
	return &snapVersion{seq: -1, state: sp.Init()}
}

// publish applies op to the newest version and stores the result as the
// state the COMMIT at log index seq leaves. A version that COMMIT already
// published is superseded rather than stacked: no cut contains it yet.
func (o *sharedObject) publish(seq int, op spec.Op) {
	head := o.versions.Load()
	older := head
	if head.seq == seq {
		older = head.older
	}
	st, _ := o.sp.Apply(head.state, op)
	o.versions.Store(&snapVersion{seq: seq, state: st, older: older})
}

// stateAt is the state published by the last COMMIT inside the log prefix
// [0, cut).
func (o *sharedObject) stateAt(cut int) spec.State {
	v := o.versions.Load()
	for v.seq >= cut {
		v = v.older
	}
	return v.state
}

// snapshotStore serves read-only transactions on the mvto backend without
// locks, automata, or log events. The certifier feeds it every event in log
// order as it certifies. It buffers the update accesses of each open
// top-level transaction, and at the top's COMMIT applies the survivors in
// log order, with the object type's own Apply, to each object's newest
// version. A read-only transaction pins a cut — the certified watermark,
// which is also the published prefix — at BEGIN and answers every read from
// the state at its cut, so its whole read set is the committed state of one
// acyclic SG(β) prefix: reads never block, never deadlock, and never force
// an abort. A stalled certifier only makes snapshots older, never
// uncertified.
type snapshotStore struct {
	srv *Server
	// init is the state of an object no transaction has created yet.
	init spec.State
	// pending is the certifier's private state: the granted update accesses
	// of each open top, in log order.
	pending map[tname.TxID][]tname.TxID
}

func newSnapshotStore(s *Server) *snapshotStore {
	return &snapshotStore{
		srv:     s,
		init:    s.opts.DefaultSpec.Init(),
		pending: make(map[tname.TxID][]tname.TxID),
	}
}

// topOf resolves the top-level ancestor of tx (tx itself when it is one).
//
//sgvet:holds st.srv.mu:r
func (st *snapshotStore) topOf(tx tname.TxID) tname.TxID {
	if st.srv.tr.Parent(tx) == tname.Root {
		return tx
	}
	return st.srv.tr.ChildAncestor(tname.Root, tx)
}

// apply folds the event at log index idx into the pending/publish
// state; the caller holds the tree read lock.
//
//sgvet:holds st.srv.mu:r
func (st *snapshotStore) apply(idx int, e event.Event) {
	tr := st.srv.tr
	switch e.Kind {
	case event.RequestCommit:
		if e.Tx == tname.Root || !tr.IsAccess(e.Tx) {
			return
		}
		if tr.Spec(tr.AccessObject(e.Tx)).ReadOnly(tr.AccessOp(e.Tx)) {
			return
		}
		top := st.topOf(e.Tx)
		st.pending[top] = append(st.pending[top], e.Tx)
	case event.Abort:
		if e.Tx == tname.Root {
			return
		}
		if tr.Parent(e.Tx) == tname.Root {
			delete(st.pending, e.Tx)
			return
		}
		top := st.topOf(e.Tx)
		pend := st.pending[top]
		kept := pend[:0]
		for _, acc := range pend {
			if !tr.IsDescendant(acc, e.Tx) {
				kept = append(kept, acc)
			}
		}
		st.pending[top] = kept
	case event.Commit:
		if e.Tx == tname.Root || tr.Parent(e.Tx) != tname.Root {
			return
		}
		for _, acc := range st.pending[e.Tx] {
			st.srv.objs[tr.AccessObject(acc)].publish(idx, tr.AccessOp(acc))
		}
		delete(st.pending, e.Tx)
	default:
	}
}

// cut pins the snapshot point for a new read-only transaction: the
// certified, hence published, log prefix, but never past the first event
// whose prefix made SG(β) cyclic — the prefix before it is the longest one
// certified acyclic, so a reader is never handed an uncertified state.
func (st *snapshotStore) cut() int {
	st.srv.metrics.ROBegins.Add(1)
	wm := int(st.srv.cert.watermark.Load())
	if r := st.srv.cert.rejected.Load(); r != nil {
		return min(wm, r.at)
	}
	return wm
}

// read answers op on the object named label from the state at the cut: the
// state the last top-level COMMIT inside the cut prefix published, or the
// initial state when none did (to a prefix that predates an object, it holds
// its initial value). ok is false when op is not a read-only op of the
// object's type, which a snapshot cannot serve.
//
//sgvet:hotpath
func (st *snapshotStore) read(label string, op spec.Op, cut int) (v spec.Value, ok bool) {
	sp, state := st.srv.opts.DefaultSpec, st.init
	st.srv.mu.RLock()
	if id := st.srv.tr.Object(label); id != tname.NoObj {
		o := st.srv.objs[id]
		sp, state = o.sp, o.stateAt(cut)
	}
	st.srv.mu.RUnlock()
	if !sp.ReadOnly(op) {
		return spec.Nil, false
	}
	st.srv.metrics.SnapshotReads.Add(1)
	_, v = sp.Apply(state, op)
	return v, true
}
