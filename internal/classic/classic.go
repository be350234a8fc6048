// Package classic implements the classical (unnested) serializability
// theory the paper generalizes: conflict-serializability testing on flat
// histories via the textbook serialization graph over committed
// transactions, as in Bernstein/Hadzilacos/Goodman.
//
// In the paper's model a classical system is the special case in which
// every child of T0 is a flat transaction whose children are accesses
// (depth ≤ 2 names, accesses at depth 2). Experiment E6 checks that on
// such systems the conflict edges of the paper's SG(β, T0) generate exactly
// the classical graph (same transitive closure; core stores a generating
// set of conflict(β)), and that the classical and nested checkers agree —
// the subsumption the introduction claims.
package classic

import (
	"fmt"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Edge is a directed edge between top-level transactions.
type Edge struct {
	From, To tname.TxID
}

// SGT is the classical serialization graph of a flat history: nodes are
// the committed top-level transactions, with an edge Ti → Tj when an
// access of Ti conflicts with a later access of Tj (committed projection:
// accesses of uncommitted or aborted transactions are ignored).
type SGT struct {
	Txs   []tname.TxID
	Edges map[Edge]bool

	index map[tname.TxID]int
	g     *graph.Graph
}

// BuildSGT constructs the classical graph from the serial actions of b.
// It returns an error if the history is not flat (an access deeper than a
// child of a child of T0).
func BuildSGT(tr *tname.Tree, b event.Behavior) (*SGT, error) {
	serialB := b.Serial()
	committed := serialB.CommitSet()

	s := &SGT{Edges: make(map[Edge]bool), index: make(map[tname.TxID]int)}
	node := func(t tname.TxID) int {
		if i, ok := s.index[t]; ok {
			return i
		}
		i := len(s.Txs)
		s.Txs = append(s.Txs, t)
		s.index[t] = i
		return i
	}

	type step struct {
		top tname.TxID
		op  event.AccessOp
	}
	perObj := make(map[tname.ObjID][]step)
	for _, e := range serialB {
		if e.Kind != event.RequestCommit || !tr.IsAccess(e.Tx) {
			continue
		}
		if tr.Depth(e.Tx) != 2 {
			return nil, fmt.Errorf("classic: access %s is not flat (depth %d)", tr.Name(e.Tx), tr.Depth(e.Tx))
		}
		top := tr.ChildAncestor(tname.Root, e.Tx)
		// Committed projection: both the access and its transaction must
		// have committed.
		if !committed[top] || !committed[e.Tx] {
			continue
		}
		x := tr.AccessObject(e.Tx)
		cur := step{top: top, op: event.AccessOp{Tx: e.Tx, Obj: x,
			OV: spec.OpVal{Op: tr.AccessOp(e.Tx), Val: e.Val}}}
		node(top)
		sp := tr.Spec(x)
		for _, prev := range perObj[x] {
			if prev.top != top && sp.Conflicts(prev.op.OV, cur.op.OV) {
				s.Edges[Edge{From: prev.top, To: top}] = true
			}
		}
		perObj[x] = append(perObj[x], cur)
	}

	s.g = graph.New(len(s.Txs))
	for e := range s.Edges {
		s.g.AddEdge(s.index[e.From], s.index[e.To])
	}
	return s, nil
}

// Serializable reports whether the history is conflict-serializable: the
// classical graph is acyclic.
func (s *SGT) Serializable() bool { return s.g.Acyclic() }

// CompareWithNested checks the subsumption claim in the form the nested
// construction admits: the conflict edges stored in the paper's SG(β, T0)
// over committed top-level transactions are classical edges, and every
// classical edge is implied by a path of them. The engine stores a
// generating set of conflict(β), not every pair (core's conflict frontier:
// a pair with a write between its two accesses is reached through that
// write), and on a flat history every such chain stays among T0's
// children, so the two graphs have the same transitive closure — hence the
// same verdict and the same admissible serial orders. It returns a
// description of the first discrepancy, or "" when the graphs agree.
func (s *SGT) CompareWithNested(tr *tname.Tree, sg *core.SG) string {
	pg := sg.Parent(tname.Root)
	// Collect nested conflict edges between committed top-level names.
	nested := make(map[Edge]bool)
	succ := make(map[tname.TxID][]tname.TxID)
	if pg != nil {
		for _, ce := range pg.Edges() {
			if ce.Kind&core.EdgeConflict == 0 {
				continue
			}
			e := Edge{From: pg.Children[ce.From], To: pg.Children[ce.To]}
			nested[e] = true
			succ[e.From] = append(succ[e.From], e.To)
		}
	}
	for e := range nested {
		if !s.Edges[e] {
			return fmt.Sprintf("SG(β,T0) conflict edge %s -> %s missing from classical graph", tr.Name(e.From), tr.Name(e.To))
		}
	}
	for e := range s.Edges {
		if !nested[e] && !reaches(succ, e.From, e.To) {
			return fmt.Sprintf("classical edge %s -> %s not implied by the conflict edges of SG(β,T0)", tr.Name(e.From), tr.Name(e.To))
		}
	}
	return ""
}

// reaches reports whether to is reachable from from by one or more edges.
func reaches(succ map[tname.TxID][]tname.TxID, from, to tname.TxID) bool {
	seen := map[tname.TxID]bool{}
	stack := append([]tname.TxID(nil), succ[from]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		if !seen[v] {
			seen[v] = true
			stack = append(stack, succ[v]...)
		}
	}
	return false
}
