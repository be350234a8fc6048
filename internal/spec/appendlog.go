package spec

import (
	"fmt"
	"math/rand"
	"strings"
)

// AppendLog is an append-only sequence of integers with a length query.
// Appends return OK but do not commute with each other (the final sequence
// records their order), so this type shows that "blind update" alone is not
// enough for commutativity — the §6 construction must consult the type.
// len conflicts with append; len commutes with len.
type AppendLog struct{}

type logState []int64

// Name implements Spec.
func (AppendLog) Name() string { return "appendlog" }

// Init implements Spec.
func (AppendLog) Init() State { return logState(nil) }

// Apply implements Spec.
func (AppendLog) Apply(s State, op Op) (State, Value) {
	st := s.(logState)
	switch op.Kind {
	case OpAppend:
		out := make(logState, len(st)+1)
		copy(out, st)
		out[len(st)] = op.Arg.Int
		return out, OK
	case OpLen:
		return s, Int(int64(len(st)))
	default:
		panic(fmt.Sprintf("appendlog: unsupported op %s", op))
	}
}

// Conflicts implements Spec.
//
// Two appends of the same value commute (the resulting sequences are equal);
// appends of distinct values do not. len conflicts with append because its
// value pins the number of preceding appends.
func (AppendLog) Conflicts(a, b OpVal) bool {
	if a.Op.Kind == OpLen && b.Op.Kind == OpLen {
		return false
	}
	if a.Op.Kind == OpAppend && b.Op.Kind == OpAppend {
		return a.Op.Arg != b.Op.Arg
	}
	return true
}

// ConflictsWithAll implements Spec: an append commutes with an append of the same value, len with len.
func (AppendLog) ConflictsWithAll(OpVal) bool { return false }

// Encode implements Spec.
func (AppendLog) Encode(s State) string {
	st := s.(logState)
	parts := make([]string, len(st))
	for i, v := range st {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// RandOp implements Spec.
func (AppendLog) RandOp(r *rand.Rand) Op {
	if r.Intn(5) == 0 {
		return Op{Kind: OpLen}
	}
	return Op{Kind: OpAppend, Arg: Int(int64(r.Intn(4)))}
}

// ReadOnly implements Spec.
func (AppendLog) ReadOnly(op Op) bool { return op.Kind == OpLen }
