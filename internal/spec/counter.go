package spec

import (
	"fmt"
	"math/rand"
)

// Counter is an integer counter supporting blind increments and decrements
// plus a get. Increments and decrements commute backward with one another,
// so under the §6 construction they never conflict — the canonical example
// of type-specific concurrency that read/write locking cannot exploit.
type Counter struct{}

// Name implements Spec.
func (Counter) Name() string { return "counter" }

// Init implements Spec.
func (Counter) Init() State { return int64(0) }

// Apply implements Spec.
func (Counter) Apply(s State, op Op) (State, Value) {
	cur := s.(int64)
	switch op.Kind {
	case OpIncrement:
		return cur + op.Arg.Int, OK
	case OpDecrement:
		return cur - op.Arg.Int, OK
	case OpGet:
		return s, Int(cur)
	default:
		panic(fmt.Sprintf("counter: unsupported op %s", op))
	}
}

// Conflicts implements Spec.
//
// inc/dec are blind (return OK) and addition is commutative, so any two of
// them commute backward. get returns the current value, so it conflicts
// with any update; two gets commute.
func (Counter) Conflicts(a, b OpVal) bool {
	aUpd := a.Op.Kind == OpIncrement || a.Op.Kind == OpDecrement
	bUpd := b.Op.Kind == OpIncrement || b.Op.Kind == OpDecrement
	if aUpd && bUpd {
		return false
	}
	if !aUpd && !bUpd { // two gets
		return false
	}
	return true
}

// ConflictsWithAll implements Spec: updates commute with updates and gets with gets.
func (Counter) ConflictsWithAll(OpVal) bool { return false }

// Encode implements Spec.
func (Counter) Encode(s State) string { return fmt.Sprintf("%d", s.(int64)) }

// RandOp implements Spec: mostly updates, occasionally a get.
func (Counter) RandOp(r *rand.Rand) Op {
	switch r.Intn(4) {
	case 0:
		return Op{Kind: OpGet}
	case 1:
		return Op{Kind: OpDecrement, Arg: Int(int64(1 + r.Intn(4)))}
	default:
		return Op{Kind: OpIncrement, Arg: Int(int64(1 + r.Intn(4)))}
	}
}

// ReadOnly implements Spec.
func (Counter) ReadOnly(op Op) bool { return op.Kind == OpGet }
