package spec

import (
	"fmt"
	"math/rand"
)

// Register is the read/write serial object of §3.1: a single location whose
// state is the most recently written value. Reads return the current value;
// writes store their argument and return OK.
//
// Its conflict relation is the classical one: two accesses conflict unless
// both are reads.
type Register struct {
	// InitVal is the initial value d of the object; the zero Register has
	// initial value Int(0).
	InitVal Value
}

// Name implements Spec.
func (Register) Name() string { return "register" }

// Init implements Spec.
func (r Register) Init() State {
	if r.InitVal.Kind == VNil {
		return Int(0)
	}
	return r.InitVal
}

// Apply implements Spec.
func (Register) Apply(s State, op Op) (State, Value) {
	cur := s.(Value)
	switch op.Kind {
	case OpRead:
		return s, cur
	case OpWrite:
		return op.Arg, OK
	default:
		panic(fmt.Sprintf("register: unsupported op %s", op))
	}
}

// Conflicts implements Spec: conflict unless both operations are reads.
func (Register) Conflicts(a, b OpVal) bool {
	return a.Op.Kind != OpRead || b.Op.Kind != OpRead
}

// ConflictsWithAll implements Spec: a write conflicts with reads and writes.
func (Register) ConflictsWithAll(a OpVal) bool { return a.Op.Kind != OpRead }

// Encode implements Spec.
func (Register) Encode(s State) string { return s.(Value).String() }

// RandOp implements Spec: equal mix of reads and writes over a small domain.
func (Register) RandOp(r *rand.Rand) Op {
	if r.Intn(2) == 0 {
		return Op{Kind: OpRead}
	}
	return Op{Kind: OpWrite, Arg: Int(int64(r.Intn(8)))}
}

// IsWrite reports whether op is a write access of the read/write type. The
// simple-system audits of §3 use this to compute write-sequence(β, X).
func IsWrite(op Op) bool { return op.Kind == OpWrite }

// IsRead reports whether op is a read access of the read/write type.
func IsRead(op Op) bool { return op.Kind == OpRead }

// ReadOnly implements Spec.
func (Register) ReadOnly(op Op) bool { return op.Kind == OpRead }
