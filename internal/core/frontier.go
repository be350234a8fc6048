package core

import "nestedsg/internal/tname"

// frontier decides which precedes(β) edges the engine materializes. The
// paper relates T' to T” whenever their parent saw a report for T' before
// it requested T” — an interval order on the children, each living from its
// REQUEST_CREATE to its report — and a literal construction adds one edge
// per such pair: Θ(n²) for n sequential siblings. Acyclicity of
// precedes ∪ conflict only depends on the transitive closure of precedes,
// so the engine stores a generating set instead: a request takes edges
// only from the *maximal* reported siblings, those no other reported
// sibling's lifetime lies wholly after. Every dropped pair (S, T”) is
// implied: some reported U was requested after S's report, S reaches U by
// the edges U's own request took, and U (or a later such sibling) is still
// in the window — THEORY.md "The precedes frontier" has the induction and
// why verdicts, cycle certificates and the derived order R are unaffected.
//
// The maximal siblings are a suffix of the parent's report list. A child
// requested when the list had length k is preceded by exactly the first k
// entries, so once it reports, those k are implied through it: the suffix
// starts at lo = max k over the reported children. That is one comparison
// per report, plus one walk of each list in all to keep the suffix's first
// entry at hand, and no scan per request.
//
// Conventions on input no simple system produces: a child's *first*
// REQUEST_CREATE fixes its k; a child reported before any request has k = 0
// (request position −∞, it implies nothing); duplicate reports are kept as
// list entries.
type frontier struct {
	// epoch stamps the entries below; reset bumps it, which empties every
	// list and forgets every request in O(1).
	epoch uint32

	// lists holds, per transaction as a parent, its list of reported
	// children and the start of the maximal suffix; reqs holds, per
	// transaction as a child, the length of its parent's list at its first
	// REQUEST_CREATE (a stale stamp means not requested yet).
	lists []repList
	reqs  []reqMark

	// ents holds every list's entries, in β order, each linked to the next
	// entry of its own list: the lists share one pointer-free arena.
	ents []repEnt
}

// repList is one parent's list of reported children: its length n, its
// last entry, and the start lo of the maximal suffix with that entry's
// arena index at (-1 while lo = n).
type repList struct {
	ep       uint32
	n, lo    int32
	at, last int32
}

// repEnt is one report: the child and the next entry of its parent's list
// (-1 at the end).
type repEnt struct {
	child tname.TxID
	next  int32
}

// reqMark is one child's request position in its parent's list.
type reqMark struct {
	ep uint32
	n  int32
}

// window is the n entries of a parent's list, starting at arena index at,
// that a request takes its precedes edges from: the maximal suffix at
// request time, fixed however late the edges materialize. The list only
// grows, so the entries stay where they are.
type window struct{ at, n int32 }

// grow sizes the per-transaction entries to n names. Fresh stamps are 0,
// so the first epoch is 1: the zero frontier is ready to use.
func (f *frontier) grow(n int) {
	if f.epoch == 0 {
		f.epoch = 1
	}
	if k := n - len(f.lists); k > 0 {
		f.lists = append(f.lists, make([]repList, k)...)
		f.reqs = append(f.reqs, make([]reqMark, k)...)
	}
}

// reset rewinds to the empty behavior, keeping every backing array.
//
//sgvet:hotpath
func (f *frontier) reset() {
	f.ents = f.ents[:0]
	f.epoch++
	if f.epoch == 0 {
		// Wraparound after 2^32 resets: stale stamps could collide, so pay
		// one full clear.
		clear(f.lists)
		clear(f.reqs)
		f.epoch = 1
	}
}

// report records a REPORT_COMMIT/REPORT_ABORT for child t of p.
//
//sgvet:hotpath
func (f *frontier) report(p, t tname.TxID) {
	l := &f.lists[p]
	if l.ep != f.epoch {
		*l = repList{ep: f.epoch, at: -1, last: -1}
	}
	k := int32(len(f.ents))
	f.ents = append(f.ents, repEnt{child: t, next: -1})
	if l.last >= 0 {
		f.ents[l.last].next = k
	}
	l.last = k
	if l.at < 0 {
		// lo was n: the new entry is the first of the suffix.
		l.at = k
	}
	l.n++
	// Advancing lo walks the list, and lo only grows, so a list is walked
	// once in all.
	if r := f.reqs[t]; r.ep == f.epoch {
		for l.lo < r.n {
			l.at = f.ents[l.at].next
			l.lo++
		}
	}
}

// request records a REQUEST_CREATE for child t of p and returns the window
// of reported siblings it takes precedes edges from.
//
//sgvet:hotpath
func (f *frontier) request(p, t tname.TxID) window {
	var w window
	n := int32(0)
	if l := &f.lists[p]; l.ep == f.epoch {
		w, n = window{at: l.at, n: l.n - l.lo}, l.n
	}
	if r := &f.reqs[t]; r.ep != f.epoch {
		*r = reqMark{ep: f.epoch, n: n}
	}
	return w
}

// sibling returns the child of the report at arena index k and the index
// of the next report of the same list: a window's entries are w.n steps
// from w.at. The caller skips the requested child itself (a duplicate
// request can find it there).
//
//sgvet:hotpath
func (f *frontier) sibling(k int32) (tname.TxID, int32) {
	e := f.ents[k]
	return e.child, e.next
}
