package spec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// IntSet is a set of small integers with blind insert/remove, a membership
// test and a size query. Blind updates on distinct elements commute; updates
// on the same element commute with each other only when they are the same
// operation (insert/insert or remove/remove are idempotent in either order).
type IntSet struct{}

// setState is an immutable sorted slice of distinct elements.
type setState []int64

// Name implements Spec.
func (IntSet) Name() string { return "set" }

// Init implements Spec.
func (IntSet) Init() State { return setState(nil) }

// Apply implements Spec.
func (IntSet) Apply(s State, op Op) (State, Value) {
	st := s.(setState)
	switch op.Kind {
	case OpInsert:
		if st.has(op.Arg.Int) {
			return st, OK
		}
		return st.with(op.Arg.Int), OK
	case OpRemove:
		if !st.has(op.Arg.Int) {
			return st, OK
		}
		return st.without(op.Arg.Int), OK
	case OpMember:
		return s, Bool(st.has(op.Arg.Int))
	case OpSize:
		return s, Int(int64(len(st)))
	default:
		panic(fmt.Sprintf("set: unsupported op %s", op))
	}
}

func (st setState) has(v int64) bool {
	i := sort.Search(len(st), func(i int) bool { return st[i] >= v })
	return i < len(st) && st[i] == v
}

func (st setState) with(v int64) setState {
	i := sort.Search(len(st), func(i int) bool { return st[i] >= v })
	out := make(setState, 0, len(st)+1)
	out = append(out, st[:i]...)
	out = append(out, v)
	return append(out, st[i:]...)
}

func (st setState) without(v int64) setState {
	i := sort.Search(len(st), func(i int) bool { return st[i] >= v })
	out := make(setState, 0, len(st)-1)
	out = append(out, st[:i]...)
	return append(out, st[i+1:]...)
}

// Conflicts implements Spec.
//
// Derivation: insert(a)/insert(a) and remove(a)/remove(a) are idempotent
// blind updates, hence commute; insert(a)/remove(a) do not (the final state
// depends on order). Updates on distinct elements commute. member(a,v)
// commutes with updates on other elements and with a same-element update
// whose effect is implied by v (insert after member=true, remove after
// member=false are no-ops in every state reaching that return) — we keep the
// table conservative and declare member(a) in conflict with any update of a.
// size conflicts with every update (its value pins the cardinality).
func (IntSet) Conflicts(a, b OpVal) bool {
	return setConflict(a, b) || setConflict(b, a)
}

func isSetUpdate(k OpKind) bool { return k == OpInsert || k == OpRemove }

func setConflict(a, b OpVal) bool {
	switch a.Op.Kind {
	case OpInsert, OpRemove:
		switch b.Op.Kind {
		case OpInsert, OpRemove:
			if a.Op.Arg != b.Op.Arg {
				return false
			}
			return a.Op.Kind != b.Op.Kind
		case OpMember:
			return a.Op.Arg == b.Op.Arg
		case OpSize:
			return true
		default:
			return false
		}
	case OpMember:
		if isSetUpdate(b.Op.Kind) {
			return a.Op.Arg == b.Op.Arg
		}
		return false
	case OpSize:
		return isSetUpdate(b.Op.Kind)
	default:
		return true
	}
}

// ConflictsWithAll implements Spec: every operation commutes with a copy of itself.
func (IntSet) ConflictsWithAll(OpVal) bool { return false }

// Encode implements Spec.
func (IntSet) Encode(s State) string {
	st := s.(setState)
	parts := make([]string, len(st))
	for i, v := range st {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// RandOp implements Spec over a domain of 6 elements.
func (IntSet) RandOp(r *rand.Rand) Op {
	arg := Int(int64(r.Intn(6)))
	switch r.Intn(6) {
	case 0:
		return Op{Kind: OpSize}
	case 1:
		return Op{Kind: OpMember, Arg: arg}
	case 2, 3:
		return Op{Kind: OpRemove, Arg: arg}
	default:
		return Op{Kind: OpInsert, Arg: arg}
	}
}

// ReadOnly implements Spec.
func (IntSet) ReadOnly(op Op) bool { return op.Kind == OpMember || op.Kind == OpSize }
