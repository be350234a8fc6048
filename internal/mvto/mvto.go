// Package mvto implements a multiversion timestamp-ordering generic object
// for read/write objects, in the style of Reed's hierarchical timestamps —
// the kind of algorithm the paper's conclusion points at: "the classical
// theory has been extended ... to model concurrency control and recovery
// algorithms that use multiple versions ... It should be possible to
// develop techniques based on the model presented in this paper that
// parallel [those]."
//
// Every transaction receives a *path timestamp*: its parent's path
// extended by a per-parent counter assigned on first activity. Path
// timestamps compare lexicographically, so one total order serializes both
// top-level transactions and the siblings inside every subtransaction.
// A version carries its writer's path; a read at path p observes the
// version with the largest path below p, waiting until that version's
// writer has committed up to the least common ancestor (no dirty reads).
// A write at path q is "too late" — and its classical transaction must
// restart — when some reader above q has already observed a version below
// q. Aborted subtrees' versions are discarded.
//
// The point of carrying this protocol in the repository is negative and
// positive at once (experiment E13):
//
//   - the paper's serialization graph SG(β) orders conflicts by *event
//     order*, which multiversion systems deliberately violate, so the
//     checker conservatively flags many perfectly correct MVTO behaviors —
//     exactly the gap §7 concedes;
//   - the exhaustive Theorem-2 oracle (internal/oracle) still certifies
//     them, and the serial witness replays under the oracle's order — the
//     behaviors really are serially correct for T0.
package mvto

import (
	"fmt"
	"sort"
	"sync"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Path is a hierarchical timestamp: one counter per tree level below T0.
type Path []int64

// Cmp compares lexicographically; a proper prefix sorts before its
// extensions.
func (p Path) Cmp(q Path) int {
	for i := 0; i < len(p) && i < len(q); i++ {
		switch {
		case p[i] < q[i]:
			return -1
		case p[i] > q[i]:
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	}
	return 0
}

// String renders the path.
func (p Path) String() string {
	s := "ts"
	for _, c := range p {
		s += fmt.Sprintf(".%d", c)
	}
	return s
}

// Clock assigns path timestamps; one Clock is shared by all objects of a
// system so the serialization order is global. The server drives one
// system's objects from concurrent sessions under per-object mutexes, so
// the clock carries its own lock.
type Clock struct {
	tr *tname.Tree
	// byID switches the per-level component from an arrival-order counter
	// to the transaction's interning ID. Interning order is recorded in the
	// WAL def stream and replayed verbatim, so ID paths are the only
	// assignment that is stable across crash recovery — arrival order at
	// the clock is not, because sessions race on different object mutexes.
	byID bool

	mu      sync.Mutex
	byTx    map[tname.TxID]Path  //sgvet:guardedby mu
	counter map[tname.TxID]int64 //sgvet:guardedby mu
}

// NewClock returns an empty arrival-order clock over the given system type.
func NewClock(tr *tname.Tree) *Clock {
	return &Clock{tr: tr, byTx: make(map[tname.TxID]Path), counter: make(map[tname.TxID]int64)}
}

// NewIDClock returns a clock whose per-level components are the interned
// transaction IDs rather than arrival-order counters. Sibling order is
// first-interning order, which the WAL def stream makes replay-stable.
func NewIDClock(tr *tname.Tree) *Clock {
	c := NewClock(tr)
	c.byID = true
	return c
}

// PathTS returns tx's path timestamp, assigning components (recursively,
// up the ancestor chain) on first use. T0's path is empty.
func (c *Clock) PathTS(tx tname.TxID) Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pathTS(tx)
}

// pathTS is PathTS's recursive body.
//
//sgvet:holds c.mu
func (c *Clock) pathTS(tx tname.TxID) Path {
	if tx == tname.Root {
		return nil
	}
	if p, ok := c.byTx[tx]; ok {
		return p
	}
	parent := c.tr.Parent(tx)
	pp := c.pathTS(parent)
	p := make(Path, len(pp)+1)
	copy(p, pp)
	if c.byID {
		p[len(pp)] = int64(tx)
	} else {
		c.counter[parent]++
		p[len(pp)] = c.counter[parent]
	}
	c.byTx[tx] = p
	return p
}

// version is one multiversion entry.
type version struct {
	ts  Path // the writer access's path timestamp
	val spec.Value
	// writer is the access that created the version (None for the initial
	// version).
	writer tname.TxID
	// maxRead is the largest path that has read this version.
	maxRead Path
}

// MVTO is the multiversion timestamp-ordering generic object. It supports
// read/write (register) objects only.
type MVTO struct {
	tr    *tname.Tree
	x     tname.ObjID
	clock *Clock
	// strict restarts any conflicting access that arrives below an already
	// granted one in timestamp order, instead of serving it out of event
	// order. With strict admission every per-object conflict is granted in
	// increasing path order, so each SG(β) conflict edge points from the
	// lower path to the higher one and the certifier's event-order graph is
	// acyclic — the mode the online-certified server runs.
	strict bool

	created         map[tname.TxID]bool
	commitRequested map[tname.TxID]bool
	committed       map[tname.TxID]bool
	// versions is kept sorted by ts; index 0 is the initial value (empty
	// path, smaller than every access path).
	versions []*version
}

// New builds the MVTO object for register x, sharing the given clock.
func New(tr *tname.Tree, x tname.ObjID, clock *Clock) *MVTO {
	if tr.Spec(x).Name() != (spec.Register{}).Name() {
		panic(fmt.Sprintf("mvto: object %s is %s; only read/write objects are supported",
			tr.ObjectLabel(x), tr.Spec(x).Name()))
	}
	init := tr.Spec(x).Init().(spec.Value)
	return &MVTO{
		tr:              tr,
		x:               x,
		clock:           clock,
		created:         make(map[tname.TxID]bool),
		commitRequested: make(map[tname.TxID]bool),
		committed:       make(map[tname.TxID]bool),
		versions:        []*version{{ts: nil, val: init, writer: tname.None}},
	}
}

// NewStrict builds the strict-admission MVTO object for register x (see the
// MVTO.strict field); the server backend uses it with an ID clock.
func NewStrict(tr *tname.Tree, x tname.ObjID, clock *Clock) *MVTO {
	m := New(tr, x, clock)
	m.strict = true
	return m
}

// Create implements object.Generic; the path timestamp is assigned eagerly
// so the serialization order reflects first activity.
func (m *MVTO) Create(t tname.TxID) {
	m.created[t] = true
	m.clock.PathTS(t)
}

// InformCommit implements object.Generic.
func (m *MVTO) InformCommit(t tname.TxID) { m.committed[t] = true }

// InformAbort implements object.Generic: versions written by descendants
// of the aborted transaction disappear.
func (m *MVTO) InformAbort(t tname.TxID) {
	kept := m.versions[:0]
	for _, v := range m.versions {
		if v.writer != tname.None && m.tr.IsDescendant(v.writer, t) {
			continue
		}
		kept = append(kept, v)
	}
	m.versions = kept
}

// candidate returns the version a read at path p must observe: the largest
// version path below p.
func (m *MVTO) candidate(p Path) *version {
	var best *version
	for _, v := range m.versions {
		if v.ts.Cmp(p) < 0 && (best == nil || v.ts.Cmp(best.ts) > 0) {
			best = v
		}
	}
	return best
}

// visibleTo reports whether the version's writer has committed up to the
// least common ancestor with the reader — the paper's visibility notion,
// which is exactly the no-dirty-read ("safe") condition.
func (m *MVTO) visibleTo(v *version, reader tname.TxID) bool {
	if v.writer == tname.None {
		return true
	}
	lca := m.tr.LCA(v.writer, reader)
	for a := v.writer; a != lca; a = m.tr.Parent(a) {
		if !m.committed[a] {
			return false
		}
	}
	return true
}

// writeTooLate reports whether inserting a version at path q would
// invalidate an existing read: some version below q has been read from
// above q.
func (m *MVTO) writeTooLate(q Path) bool {
	for _, v := range m.versions {
		if v.ts.Cmp(q) < 0 && v.maxRead.Cmp(q) > 0 {
			return true
		}
	}
	return false
}

// versionAbove reports whether a version with a path above p exists —
// under strict admission, a conflicting access at p arrived too late.
func (m *MVTO) versionAbove(p Path) bool {
	// versions is sorted by ts; the last entry is the largest.
	return len(m.versions) > 0 && m.versions[len(m.versions)-1].ts.Cmp(p) > 0
}

// tooLate reports whether access t at path p can never be granted and its
// classical transaction must restart.
func (m *MVTO) tooLate(p Path, isRead bool) bool {
	if m.strict && m.versionAbove(p) {
		return true
	}
	return !isRead && m.writeTooLate(p)
}

// TryRequestCommit implements object.Generic.
func (m *MVTO) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !m.created[t] || m.commitRequested[t] {
		return spec.Nil, false
	}
	op := m.tr.AccessOp(t)
	p := m.clock.PathTS(t)
	isRead := spec.IsRead(op)
	if m.tooLate(p, isRead) {
		return spec.Nil, false // ShouldAbort reports the restart
	}
	if isRead {
		v := m.candidate(p)
		if v == nil || !m.visibleTo(v, t) {
			return spec.Nil, false // wait for the writer's commit chain
		}
		if p.Cmp(v.maxRead) > 0 {
			v.maxRead = p
		}
		m.commitRequested[t] = true
		return v.val, true
	}
	// Write access.
	m.versions = append(m.versions, &version{ts: p, val: op.Arg, writer: t})
	sort.SliceStable(m.versions, func(i, j int) bool {
		return m.versions[i].ts.Cmp(m.versions[j].ts) < 0
	})
	m.commitRequested[t] = true
	return spec.OK, true
}

// ShouldAbort implements object.Aborter: an access that arrived too late
// (a late write in classic mode; any late conflicting access in strict
// mode) can never be granted; its classical transaction must restart.
func (m *MVTO) ShouldAbort(t tname.TxID) bool {
	if !m.created[t] || m.commitRequested[t] {
		return false
	}
	return m.tooLate(m.clock.PathTS(t), spec.IsRead(m.tr.AccessOp(t)))
}

// Blockers implements object.Generic: a read waiting for its candidate
// version's commit chain names the writer.
func (m *MVTO) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	for _, t := range ts {
		if !m.created[t] || m.commitRequested[t] || !spec.IsRead(m.tr.AccessOp(t)) {
			continue
		}
		if v := m.candidate(m.clock.PathTS(t)); v != nil && !m.visibleTo(v, t) {
			out = append(out, v.writer)
		}
	}
	return out
}

// Blocked implements object.Generic. It names no witness: a grant of a
// write below a waiting read's path gives the read another candidate
// version, and a grant of a read above a write's path dooms the write
// (ShouldAbort), so no INFORM-only clause covers an MVTO waiter. It asks
// what Blockers asks, without building the list.
func (m *MVTO) Blocked(t tname.TxID) (tname.TxID, bool) {
	if !m.created[t] || m.commitRequested[t] || !spec.IsRead(m.tr.AccessOp(t)) {
		return tname.None, false
	}
	v := m.candidate(m.clock.PathTS(t))
	return tname.None, v != nil && !m.visibleTo(v, t)
}

// Audit implements object.Auditor: versions stay sorted by path and the
// initial version survives.
func (m *MVTO) Audit() error {
	if len(m.versions) == 0 || m.versions[0].writer != tname.None {
		return fmt.Errorf("mvto: initial version missing")
	}
	for i := 1; i < len(m.versions); i++ {
		if m.versions[i-1].ts.Cmp(m.versions[i].ts) >= 0 {
			return fmt.Errorf("mvto: versions out of order at %d", i)
		}
	}
	return nil
}

// Versions exposes (path, value) pairs for tests.
func (m *MVTO) Versions() []struct {
	TS  Path
	Val spec.Value
} {
	out := make([]struct {
		TS  Path
		Val spec.Value
	}, len(m.versions))
	for i, v := range m.versions {
		out[i].TS, out[i].Val = v.ts, v.val
	}
	return out
}

// Protocol implements object.Protocol. All objects of one system share one
// clock; construct a fresh Protocol per system with NewProtocol.
type Protocol struct {
	clock  *Clock
	strict bool
}

// NewProtocol returns an MVTO protocol whose objects will share one clock
// over the given system type.
func NewProtocol(tr *tname.Tree) *Protocol { return &Protocol{clock: NewClock(tr)} }

// NewStrictProtocol returns the strict-admission MVTO protocol the server
// runs: conflicts are granted in increasing timestamp order (late arrivals
// restart), and timestamps come from the replay-stable ID clock.
func NewStrictProtocol(tr *tname.Tree) *Protocol {
	return &Protocol{clock: NewIDClock(tr), strict: true}
}

// Name implements object.Protocol.
func (p *Protocol) Name() string {
	if p.strict {
		return "mvto-strict"
	}
	return "mvto"
}

// New implements object.Protocol.
func (p *Protocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	if p.strict {
		return NewStrict(tr, x, p.clock)
	}
	return New(tr, x, p.clock)
}
