package server

import (
	"fmt"
	"sort"
	"sync/atomic"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// snapVersion is one committed value of one object: the value some
// top-level transaction's last surviving write installed, tagged with the
// log index of that transaction's COMMIT event.
type snapVersion struct {
	seq int
	val spec.Value
}

// objHist is one object's committed-version history. The slice behind the
// pointer is never mutated — publication copies it, appends, and swaps the
// pointer — so readers work from whatever consistent slice they loaded
// without any lock.
type objHist struct {
	versions atomic.Pointer[[]snapVersion]
}

// pendingWrite is a granted-but-uncommitted write the store tracks until
// its top-level transaction commits (publish) or some ancestor aborts
// (discard).
type pendingWrite struct {
	writer tname.TxID // the access that wrote
	obj    tname.ObjID
	val    spec.Value
}

// snapshotStore serves read-only transactions without locks, automata, or
// log events: the certifier feeds it every event in log order as it
// certifies, and at every top-level COMMIT event it publishes the subtree's
// surviving register writes as versions tagged with that event's log index.
// A read-only transaction pins a cut — the certified watermark, which is
// also the published prefix — at BEGIN and resolves every read against the
// latest version at or below its cut, so its whole read set equals the
// committed state of one acyclic SG(β) prefix: reads never block, never
// deadlock, and never force an abort. A stalled certifier only makes
// read-only snapshots older, never uncertified.
type snapshotStore struct {
	srv *Server

	// byObj maps objects to their histories behind an atomic pointer; the
	// map is copy-on-insert (inserts are rare: first commit per object).
	byObj atomic.Pointer[map[tname.ObjID]*objHist]

	// reads counts snapshot reads served; roTx counts read-only BEGINs.
	reads atomic.Int64
	roTx  atomic.Int64

	// pending is the certifier's private state: granted writes per open
	// top.
	pending map[tname.TxID][]pendingWrite
}

func newSnapshotStore(s *Server) *snapshotStore {
	st := &snapshotStore{
		srv:     s,
		pending: make(map[tname.TxID][]pendingWrite),
	}
	empty := make(map[tname.ObjID]*objHist)
	st.byObj.Store(&empty)
	return st
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
		op := tr.AccessOp(e.Tx)
		if !spec.IsWrite(op) {
			return
		}
		top := st.topOf(e.Tx)
		st.pending[top] = append(st.pending[top], pendingWrite{writer: e.Tx, obj: tr.AccessObject(e.Tx), val: op.Arg})
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
		for _, w := range pend {
			if w.writer != e.Tx && !tr.IsDescendant(w.writer, e.Tx) {
				kept = append(kept, w)
			}
		}
		st.pending[top] = kept
	case event.Commit:
		if e.Tx == tname.Root || tr.Parent(e.Tx) != tname.Root {
			return
		}
		pend := st.pending[e.Tx]
		if len(pend) == 0 {
			delete(st.pending, e.Tx)
			return
		}
		// Last write per object wins; pend is in log (= program) order.
		last := make(map[tname.ObjID]spec.Value, len(pend))
		for _, w := range pend {
			last[w.obj] = w.val
		}
		for obj, val := range last {
			st.publish(obj, idx, val)
		}
		delete(st.pending, e.Tx)
	default:
	}
}

// publish appends (seq, val) to obj's history. Copy-on-write on both the
// map (insert) and the slice (append) keeps concurrent readers safe.
func (st *snapshotStore) publish(obj tname.ObjID, seq int, val spec.Value) {
	m := st.byObj.Load()
	h, ok := (*m)[obj]
	if !ok {
		h = &objHist{}
		empty := []snapVersion{}
		h.versions.Store(&empty)
		nm := make(map[tname.ObjID]*objHist, len(*m)+1)
		for k, v := range *m {
			nm[k] = v
		}
		nm[obj] = h
		st.byObj.Store(&nm)
	}
	old := h.versions.Load()
	nv := make([]snapVersion, len(*old)+1)
	copy(nv, *old)
	nv[len(*old)] = snapVersion{seq: seq, val: val}
	h.versions.Store(&nv)
}

// cut pins the snapshot point for a new read-only transaction: the
// certified, hence published, log prefix.
func (st *snapshotStore) cut() int {
	st.roTx.Add(1)
	wm, _ := st.srv.cert.state()
	return wm
}

// read resolves one read at the given cut: the latest version whose
// publishing COMMIT event lies inside the cut prefix, or the spec's
// initial value when none does (or the object has never been created —
// to a prefix that predates an object, it holds its initial value).
//
//sgvet:hotpath
func (st *snapshotStore) read(label string, cutSeq int) (spec.Value, error) {
	if label == "" {
		return spec.Nil, errEmptyObjectLabel
	}
	st.reads.Add(1)
	st.srv.mu.RLock()
	obj := st.srv.tr.Object(label)
	st.srv.mu.RUnlock()
	if obj == tname.NoObj {
		return st.initVal(), nil
	}
	h, ok := (*st.byObj.Load())[obj]
	if !ok {
		return st.initVal(), nil
	}
	vs := *h.versions.Load()
	// Last version with seq < cutSeq; versions are sorted by seq.
	i := sort.Search(len(vs), func(i int) bool { return vs[i].seq >= cutSeq })
	if i == 0 {
		return st.initVal(), nil
	}
	return vs[i-1].val, nil
}

func (st *snapshotStore) initVal() spec.Value {
	return st.srv.opts.DefaultSpec.Init().(spec.Value)
}

var errEmptyObjectLabel = fmt.Errorf("empty object label")
