package spec

import (
	"fmt"
	"math/rand"
	"strings"
)

// Queue is a FIFO queue of integers. enq returns OK; deq returns the head,
// or nil on an empty queue. FIFO order makes almost everything conflict —
// the worst case for type-specific concurrency — which gives the benchmark
// suite a pessimal data point alongside Counter's optimal one.
type Queue struct{}

type queueState []int64

// Name implements Spec.
func (Queue) Name() string { return "queue" }

// Init implements Spec.
func (Queue) Init() State { return queueState(nil) }

// Apply implements Spec.
func (Queue) Apply(s State, op Op) (State, Value) {
	st := s.(queueState)
	switch op.Kind {
	case OpEnq:
		out := make(queueState, len(st)+1)
		copy(out, st)
		out[len(st)] = op.Arg.Int
		return out, OK
	case OpDeq:
		if len(st) == 0 {
			return st, Nil
		}
		out := make(queueState, len(st)-1)
		copy(out, st[1:])
		return out, Int(st[0])
	default:
		panic(fmt.Sprintf("queue: unsupported op %s", op))
	}
}

// Conflicts implements Spec.
//
// enq(a)/enq(a) commute (equal sequences); enq of distinct values conflict;
// deq conflicts with everything including other deqs (values and emptiness
// pin positions), except that two empty deqs (both returning nil) commute.
func (Queue) Conflicts(a, b OpVal) bool {
	if a.Op.Kind == OpEnq && b.Op.Kind == OpEnq {
		return a.Op.Arg != b.Op.Arg
	}
	if a.Op.Kind == OpDeq && b.Op.Kind == OpDeq {
		return !(a.Val == Nil && b.Val == Nil)
	}
	return true
}

// ConflictsWithAll implements Spec: a deq that returned an element conflicts
// with every enq and every deq; an enq commutes with an equal enq and an
// empty deq with an empty deq.
func (Queue) ConflictsWithAll(a OpVal) bool { return a.Op.Kind == OpDeq && a.Val != Nil }

// Encode implements Spec.
func (Queue) Encode(s State) string {
	st := s.(queueState)
	parts := make([]string, len(st))
	for i, v := range st {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// RandOp implements Spec.
func (Queue) RandOp(r *rand.Rand) Op {
	if r.Intn(3) == 0 {
		return Op{Kind: OpDeq}
	}
	return Op{Kind: OpEnq, Arg: Int(int64(r.Intn(4)))}
}

// ReadOnly implements Spec.
func (Queue) ReadOnly(op Op) bool { return false }
