package server

import (
	"slices"
	"strings"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/wire"
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
// certified, hence published, log prefix, but never past the prefix the
// WAL's last fsync made durable — a VERDICT certifies COMMITs whose fsync
// is still in flight, and a reader must not be handed a state a crash can
// lose — nor past the first event whose prefix made SG(β) cyclic: the
// prefix before it is the longest one certified acyclic, so a reader is
// never handed an uncertified state. A commit acknowledged to a client is
// durable and certified before the ack, so it is inside every later cut.
func (st *snapshotStore) cut() int {
	st.srv.metrics.ROBegins.Add(1)
	c := int(st.srv.cert.watermark.Load())
	if w := st.srv.wal; w != nil {
		c = min(c, int(w.durableLog.Load()))
	}
	if r := st.srv.cert.rejected.Load(); r != nil {
		c = min(c, r.at)
	}
	return c
}

// changedIn reports whether a version of o was published by a COMMIT at a
// log index in [lo, hi): whether o's state at cut lo and at cut hi can
// differ. It walks the newest versions down to lo, without a lock.
func (o *sharedObject) changedIn(lo, hi int) bool {
	for v := o.versions.Load(); v.seq >= lo; v = v.older {
		if v.seq < hi {
			return true
		}
	}
	return false
}

// read answers op on the object named label from the state at the cut: the
// state the last top-level COMMIT inside the cut prefix published, or the
// initial state when none did (to a prefix that predates an object, it holds
// its initial value). It also returns the object, nil when none has the
// label yet. ok is false when op is not a read-only op of the object's type,
// which a snapshot cannot serve.
//
//sgvet:hotpath
func (st *snapshotStore) read(label string, op spec.Op, cut int) (v spec.Value, o *sharedObject, ok bool) {
	sp, state := st.srv.opts.DefaultSpec, st.init
	if o = st.object(label); o != nil {
		sp, state = o.sp, o.stateAt(cut)
	}
	if !sp.ReadOnly(op) {
		return spec.Nil, nil, false
	}
	st.srv.metrics.SnapshotReads.Add(1)
	_, v = sp.Apply(state, op)
	return v, o, true
}

// object returns the object named label, nil when there is none yet.
func (st *snapshotStore) object(label string) *sharedObject {
	st.srv.mu.RLock()
	defer st.srv.mu.RUnlock()
	if id := st.srv.tr.Object(label); id != tname.NoObj {
		return st.srv.objs[id]
	}
	return nil
}

// viewKeys is how many distinct reads a session's view keeps: so how many
// a warm snapshot transaction can have answered with no read served, and
// how many keys a snapshot BEGIN looks at.
const viewKeys = 8

// viewBudget bounds a snapshot BEGIN answer's view delta, so that the
// frame, whose name is a few bytes, stays under wire.MaxFrame. A delta that
// would pass it empties the view instead.
const viewBudget = wire.MaxFrame / 2

// viewKey is a read a session's view keeps: op, with its argument, on the
// object labelled obj, which is o, or nil while no object had the label
// when the read was last served.
type viewKey struct {
	obj string
	op  spec.Op
	o   *sharedObject
}

// view is a session's record of its client's copy of the snapshot reads it
// served that connection (client.Conn keeps the copy): the last viewKeys
// distinct reads, least recently served first, each answered at cut. Only
// the session evicts. A served read enters the view and the client's copy
// alike; an eviction is sent as a drop at the next snapshot BEGIN, whose
// answer also pushes every key whose object published a version since cut
// with its value at the BEGIN's cut, so that the client answers every key
// of its copy at that cut with no request (THEORY.md "Certified
// snapshots", the view lemma).
type view struct {
	keys []viewKey
	cut  int
	// dropped holds the keys evicted since the last snapshot BEGIN, which
	// the client still answers from its copy; reset says more than viewKeys
	// were, so the next BEGIN empties the view and the copy instead.
	dropped []viewKey
	reset   bool
	buf     []byte // the delta being built
}

// served records that the session served the read op of the object label
// names, o, to a snapshot transaction: the key becomes the most recent,
// and the least recent is evicted when the view is full.
func (vw *view) served(label string, op spec.Op, o *sharedObject) {
	for i := range vw.keys {
		if k := vw.keys[i]; k.obj == label && k.op == op {
			k.o = o
			copy(vw.keys[i:], vw.keys[i+1:])
			vw.keys[len(vw.keys)-1] = k
			return
		}
	}
	// label may be a view of the session's frame buffer (wire.ParseRequest):
	// the key keeps the object's own, or a copy while there is no object.
	k := viewKey{op: op, o: o}
	if o != nil {
		k.obj = o.label
	} else {
		k.obj = strings.Clone(label)
	}
	vw.dropped = slices.DeleteFunc(vw.dropped, func(d viewKey) bool { return d.obj == label && d.op == op })
	if len(vw.keys) < viewKeys {
		vw.keys = append(vw.keys, k)
		return
	}
	if len(vw.dropped) < viewKeys {
		vw.dropped = append(vw.dropped, vw.keys[0])
	} else {
		vw.reset = true
	}
	copy(vw.keys, vw.keys[1:])
	vw.keys[len(vw.keys)-1] = k
}

// advance brings the view from its cut to the cut c a snapshot BEGIN
// pinned, and returns the delta its answer carries — the drops, then the
// pushes — or reset, when the view and the client's copy start empty
// instead. A push is counted as a snapshot read served.
func (vw *view) advance(st *snapshotStore, c int) (delta []byte, reset bool) {
	lo, hi := min(vw.cut, c), max(vw.cut, c)
	vw.cut = c
	vw.buf = vw.buf[:0]
	if !vw.reset {
		for _, k := range vw.dropped {
			vw.buf = wire.AppendViewDrop(vw.buf, k.obj, k.op)
		}
		pushed := int64(0)
		for i := range vw.keys {
			k := &vw.keys[i]
			if k.o == nil {
				if k.o = st.object(k.obj); k.o == nil {
					continue // the initial state at both cuts
				}
			} else if !k.o.changedIn(lo, hi) {
				continue
			}
			_, v := k.o.sp.Apply(k.o.stateAt(c), k.op)
			vw.buf = wire.AppendViewPush(vw.buf, k.obj, k.op, v)
			pushed++
		}
		vw.dropped = vw.dropped[:0]
		if len(vw.buf) <= viewBudget {
			st.srv.metrics.SnapshotReads.Add(pushed)
			return vw.buf, false
		}
	}
	vw.keys, vw.dropped, vw.reset = vw.keys[:0], vw.dropped[:0], false
	return nil, true
}
