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
// per report and no scan per request.
//
// Conventions on input no simple system produces: a child's *first*
// REQUEST_CREATE fixes its k; a child reported before any request has k = 0
// (request position −∞, it implies nothing); duplicate reports are kept as
// list entries.
type frontier struct {
	// epoch stamps the entries below; reset bumps it, which empties every
	// list and forgets every request in O(1).
	epoch uint32

	// Per transaction as a parent: the children reported so far in β order,
	// and the start of the maximal suffix.
	reported [][]tname.TxID
	lo       []int32
	repEp    []uint32

	// Per transaction as a child: len(reported[parent]) at its first
	// REQUEST_CREATE; a stale stamp means not requested yet.
	reqN  []int32
	reqEp []uint32
}

// window is the slice reported[parent][lo:n] a request takes its precedes
// edges from, fixed at request time however late the edges materialize.
type window struct{ lo, n int32 }

// grow sizes the per-transaction entries to n names. Fresh stamps are 0,
// so the first epoch is 1: the zero frontier is ready to use.
func (f *frontier) grow(n int) {
	if f.epoch == 0 {
		f.epoch = 1
	}
	for len(f.lo) < n {
		f.reported = append(f.reported, nil)
		f.lo = append(f.lo, 0)
		f.repEp = append(f.repEp, 0)
		f.reqN = append(f.reqN, 0)
		f.reqEp = append(f.reqEp, 0)
	}
}

// reset rewinds to the empty behavior, keeping every backing array.
//
//sgvet:hotpath
func (f *frontier) reset() {
	f.epoch++
	if f.epoch == 0 {
		// Wraparound after 2^32 resets: stale stamps could collide, so pay
		// one full clear.
		clear(f.repEp)
		clear(f.reqEp)
		f.epoch = 1
	}
}

// report records a REPORT_COMMIT/REPORT_ABORT for child t of p.
//
//sgvet:hotpath
func (f *frontier) report(p, t tname.TxID) {
	if f.repEp[p] != f.epoch {
		f.repEp[p] = f.epoch
		f.reported[p] = f.reported[p][:0]
		f.lo[p] = 0
	}
	f.reported[p] = append(f.reported[p], t)
	if f.reqEp[t] == f.epoch && f.reqN[t] > f.lo[p] {
		f.lo[p] = f.reqN[t]
	}
}

// request records a REQUEST_CREATE for child t of p and returns the window
// of reported siblings it takes precedes edges from.
//
//sgvet:hotpath
func (f *frontier) request(p, t tname.TxID) window {
	var w window
	if f.repEp[p] == f.epoch {
		w = window{lo: f.lo[p], n: int32(len(f.reported[p]))}
	}
	if f.reqEp[t] != f.epoch {
		f.reqEp[t] = f.epoch
		f.reqN[t] = w.n
	}
	return w
}

// siblings returns the reported children of p inside w. The caller skips
// the requested child itself (a duplicate request can find it there).
//
//sgvet:hotpath
func (f *frontier) siblings(p tname.TxID, w window) []tname.TxID {
	return f.reported[p][w.lo:w.n]
}
