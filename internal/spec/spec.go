// Package spec defines serial object specifications: the data types whose
// serial behavior the transaction system must appear to preserve.
//
// In the paper's model (§2.2.2) a serial object automaton S_X answers each
// access invocation with a REQUEST_COMMIT(T, v); the sequences of operations
// (T, v) it can exhibit define the type of X. This package captures a type
// as a deterministic state machine (Init/Apply) together with a conflict
// relation on operations derived from backward commutativity (§6.1).
//
// Section 3 of the paper specializes everything to read/write objects;
// Register is that specialization. The remaining types (Counter, Account,
// Set, AppendLog, Queue) exercise the §6 generalization to arbitrary data
// types, where commuting operations need not conflict.
package spec

import (
	"fmt"
	"math/rand"
)

// ValueKind discriminates the variants of Value.
type ValueKind uint8

// Value kinds. VOK is the distinguished "ok" return of blind updates
// (the paper's OK); VNil is the absence of a value.
const (
	VNil ValueKind = iota
	VOK
	VInt
	VBool
	VStr
)

// Value is a return value of an operation, or an operation argument. It is
// a small comparable sum type so that events and operations can be compared
// with == and used as map keys.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// Convenience constructors for Value.
var (
	Nil = Value{Kind: VNil}
	OK  = Value{Kind: VOK}
)

// Int returns an integer Value.
func Int(v int64) Value { return Value{Kind: VInt, Int: v} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: VBool, Int: 1}
	}
	return Value{Kind: VBool}
}

// Str returns a string Value.
func Str(s string) Value { return Value{Kind: VStr, Str: s} }

// AsBool reports the boolean content of v (false for non-bool kinds).
func (v Value) AsBool() bool { return v.Kind == VBool && v.Int != 0 }

// Pack splits v for a record that holds no pointer: it returns v's kind and
// one int64, which is v's integer, or for a VStr the index in strs of v's
// string, which Pack appends to strs. Unpack rebuilds v from the three. The
// server's event log and the name tree store their values this way.
//
//sgvet:hotpath
func Pack(v Value, strs []string) (ValueKind, int64, []string) {
	if v.Kind == VStr {
		return VStr, int64(len(strs)), append(strs, v.Str)
	}
	return v.Kind, v.Int, strs
}

// Unpack is the value Pack split into k and x, with strs the side table
// Pack appended to.
func Unpack(k ValueKind, x int64, strs []string) Value {
	if k == VStr {
		return Str(strs[x])
	}
	return Value{Kind: k, Int: x}
}

// String renders the value for traces and error messages.
func (v Value) String() string {
	switch v.Kind {
	case VNil:
		return "nil"
	case VOK:
		return "OK"
	case VInt:
		return fmt.Sprintf("%d", v.Int)
	case VBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case VStr:
		return fmt.Sprintf("%q", v.Str)
	}
	return fmt.Sprintf("Value(kind=%d)", v.Kind)
}

// OpKind identifies the operation requested by an access. One shared
// enumeration serves all specifications; each Spec supports a subset.
type OpKind uint8

// Operation kinds, grouped by the specification that interprets them.
const (
	OpInvalid OpKind = iota

	// Register (read/write object, §3.1).
	OpRead
	OpWrite

	// Counter.
	OpIncrement
	OpDecrement
	OpGet

	// Account (Weihl's bank account).
	OpDeposit
	OpWithdraw
	OpBalance

	// Set of integers.
	OpInsert
	OpRemove
	OpMember
	OpSize

	// AppendLog.
	OpAppend
	OpLen

	// FIFO Queue.
	OpEnq
	OpDeq
)

var opKindNames = map[OpKind]string{
	OpInvalid:   "invalid",
	OpRead:      "read",
	OpWrite:     "write",
	OpIncrement: "inc",
	OpDecrement: "dec",
	OpGet:       "get",
	OpDeposit:   "deposit",
	OpWithdraw:  "withdraw",
	OpBalance:   "balance",
	OpInsert:    "insert",
	OpRemove:    "remove",
	OpMember:    "member",
	OpSize:      "size",
	OpAppend:    "append",
	OpLen:       "len",
	OpEnq:       "enq",
	OpDeq:       "deq",
}

// String returns the lowercase mnemonic for the op kind.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// FixedAnswer returns the value an operation of kind k answers in every
// state of the built-in type that defines it, and false when the answer
// depends on the state. The fixed ones are the blind updates, which all
// answer OK: write, increment, decrement, deposit, insert, remove, append
// and enq. For them the paper's REPORT_COMMIT(T, v) tells the parent only
// that T committed, so a client may hand the value to its caller before the
// answer arrives. It must still check the answer when it does arrive: a Spec
// outside this package may answer a kind differently, and the client then
// fails the transaction instead of having promised a value nobody returned.
func FixedAnswer(k OpKind) (Value, bool) {
	switch k {
	case OpWrite, OpIncrement, OpDecrement, OpDeposit, OpInsert, OpRemove, OpAppend, OpEnq:
		return OK, true
	default:
		return Nil, false
	}
}

// ReadOnlyKind reports whether an operation of kind k leaves the state of
// the built-in type that defines it as it was, whatever its argument: read,
// get, balance, member, size and len. It is Spec.ReadOnly for a caller that
// knows an operation but not its object's type, as a client does.
func ReadOnlyKind(k OpKind) bool {
	switch k {
	case OpRead, OpGet, OpBalance, OpMember, OpSize, OpLen:
		return true
	default:
		return false
	}
}

// AnswerAfter returns the answer the read-only operation read gives right
// after update on the same object, in every state of the built-in type that
// defines both, and false when that answer depends on the state update met.
// Three pairs are fixed so: a register's write(v) then read answers v, and a
// set's insert(x) then member(x) answers true and remove(x) then member(x)
// false.
func AnswerAfter(update, read Op) (Value, bool) {
	switch {
	case update.Kind == OpWrite && read.Kind == OpRead:
		return update.Arg, true
	case update.Kind == OpInsert && read.Kind == OpMember && read.Arg == update.Arg:
		return Bool(true), true
	case update.Kind == OpRemove && read.Kind == OpMember && read.Arg == update.Arg:
		return Bool(false), true
	default:
		return Nil, false
	}
}

// Op is an operation invocation: a kind plus its argument. Following the
// paper, all parameters of an access are encoded in its (interned) name, so
// Op is comparable and hashable.
type Op struct {
	Kind OpKind
	Arg  Value
}

// String renders the operation for traces.
func (o Op) String() string {
	if o.Arg.Kind == VNil {
		return o.Kind.String()
	}
	return fmt.Sprintf("%s(%s)", o.Kind, o.Arg)
}

// OpVal is an operation paired with its return value — the paper's
// "operation (T, v)" with the transaction name abstracted away. Conflict
// relations are defined on OpVals because commutativity depends on return
// values (a failed withdrawal commutes differently from a successful one).
type OpVal struct {
	Op  Op
	Val Value
}

// String renders op=val.
func (ov OpVal) String() string { return fmt.Sprintf("%s=%s", ov.Op, ov.Val) }

// State is the abstract state of a serial object. Concrete specs use their
// own immutable representations; Apply must never mutate its argument.
type State any

// Spec is a serial object specification: a deterministic serial state
// machine plus a conservative conflict relation derived from backward
// commutativity.
//
// Determinism means each legal behavior perform(ξ) of the object extends by
// exactly one operation value for each invoked Op, namely the one Apply
// returns; perform(ξ (T,v)) is a behavior of the object iff v equals that
// value. All paper specifications used here are deterministic.
type Spec interface {
	// Name identifies the specification ("register", "counter", ...).
	Name() string

	// Init returns the initial state (the paper's initial value d).
	Init() State

	// Apply returns the successor state and return value of executing op in
	// state s. It must be a pure function of (s, op).
	Apply(s State, op Op) (State, Value)

	// Conflicts reports whether the operations a and b fail to commute
	// backward (§6.1). It must be conservative: if it returns false, a and b
	// must commute backward in every context. It is symmetric.
	Conflicts(a, b OpVal) bool

	// ConflictsWithAll reports whether a conflicts with every operation of
	// the type, on either side: true only if Conflicts(a, b) and
	// Conflicts(b, a) hold for every OpVal b whatsoever. Such an operation
	// separates the object's history — everything before it is ordered
	// before everything after it through it — which is what lets the
	// serialization-graph engine relate an access to the operations back to
	// the nearest one instead of to all of them (core.conflictFrontier).
	// Answering false is always safe; a type with no such operation does.
	ConflictsWithAll(a OpVal) bool

	// ReadOnly reports whether op never changes the object state. The
	// read/write locking objects of §5 use this to classify accesses into
	// read-class (shared lock) and update-class (exclusive lock).
	ReadOnly(op Op) bool

	// Encode renders a state canonically; two states are equivalent iff
	// their encodings are equal. Used by equieffectiveness testing.
	Encode(s State) string

	// RandOp draws a random supported operation; arguments are drawn from a
	// small domain so that collisions (and hence conflicts) actually occur.
	RandOp(r *rand.Rand) Op
}

// ValueFreeConflicts reports whether sp's Conflicts reads the two
// operations only, never their return values, so that replacing either
// value by any other leaves the answer as it was. The built-in Register,
// Counter, IntSet and AppendLog say yes; Account (a withdrawal that failed
// commutes differently from one that succeeded) and Queue (an empty deq)
// say no, and so does every Spec this table does not name, which is always
// safe. On an undo-log object over a value-free type, a grant or an abort
// changes the values pending accesses would return but cannot unblock one
// (object.Generic's wake clause).
func ValueFreeConflicts(sp Spec) bool {
	switch sp.(type) {
	case Register, Counter, IntSet, AppendLog:
		return true
	}
	return false
}

// Replay runs ops through the specification from Init and returns the final
// state and the value returned by each operation.
func Replay(sp Spec, ops []Op) (State, []Value) {
	s := sp.Init()
	vals := make([]Value, len(ops))
	for i, op := range ops {
		s, vals[i] = sp.Apply(s, op)
	}
	return s, vals
}

// IsBehavior reports whether perform(ξ) is a behavior of sp, i.e. whether
// replaying the operations yields exactly the recorded return values. If it
// is not, the index of the first offending operation is returned.
func IsBehavior(sp Spec, xi []OpVal) (bool, int) {
	s := sp.Init()
	for i, ov := range xi {
		var v Value
		s, v = sp.Apply(s, ov.Op)
		if v != ov.Val {
			return false, i
		}
	}
	return true, -1
}

// register is the zero Register as a Spec: a Register is not zero-sized,
// so each conversion of Register{} to an interface would allocate.
var register Spec = Register{}

// ByName returns the built-in specification with the given name, or nil.
// It allocates nothing: a decoder calls it once per object it reads.
func ByName(name string) Spec {
	switch name {
	case "register":
		return register
	case "counter":
		return Counter{}
	case "account":
		return Account{}
	case "set":
		return IntSet{}
	case "appendlog":
		return AppendLog{}
	case "queue":
		return Queue{}
	}
	return nil
}

// All returns one instance of every built-in specification.
func All() []Spec {
	return []Spec{Register{}, Counter{}, Account{}, IntSet{}, AppendLog{}, Queue{}}
}
