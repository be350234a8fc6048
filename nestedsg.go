// Package nestedsg is a Go implementation of the serialization graph
// construction for nested transactions of Fekete, Lynch & Weihl (PODS
// 1990), together with everything needed to exercise it: a nested
// transaction runtime with pluggable concurrency-control/recovery objects
// (Moss' read/write locking, undo logging for arbitrary data types), the
// serial systems the correctness definition refers to, and checkers that
// certify recorded behaviors serially correct for T0.
//
// # Overview
//
// The paper's model is event-based: a system's execution is a behavior — a
// sequence of actions such as CREATE(T), REQUEST_COMMIT(T, v), COMMIT(T).
// Concurrency control is correct when every behavior is "serially correct
// for T0": the environment cannot distinguish it from an execution of a
// serial system in which sibling transactions never overlap and aborted
// transactions never ran.
//
// This package is the facade over the implementation:
//
//   - Build a system type with NewTree, AddObject (pick a data type from
//     Specs) and declare transaction programs with Seq, Par and Access.
//   - Run the programs concurrently with Run, choosing a Protocol —
//     MossLocking (the paper's M1_X) or UndoLogging (the paper's U_X) —
//     and optional failure injection.
//   - Check the recorded behavior with Check: it verifies appropriate
//     return values, builds the serialization graph SG(β), tests it for
//     cycles and, on success, returns a certificate (a suitable sibling
//     order and per-object views).
//   - Materialize the serial witness with SerialWitness: an explicit
//     serial behavior γ with γ|T0 = β|T0, re-deriving every value from the
//     serial object specifications.
//
// The subpackages under internal/ contain the full model; this facade
// re-exports the stable surface.
package nestedsg

import (
	"io"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/program"
	"nestedsg/internal/replica"
	"nestedsg/internal/serial"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
)

// Core model types.
type (
	// Tree is a system type: the tree of transaction names and the named,
	// typed objects.
	Tree = tname.Tree
	// TxID names a transaction; ObjID names an object.
	TxID = tname.TxID
	// ObjID names an object.
	ObjID = tname.ObjID
	// Event is one action occurrence; Behavior is a finite sequence of
	// events.
	Event = event.Event
	// Behavior is a recorded finite behavior.
	Behavior = event.Behavior
	// Value is an operation argument or return value.
	Value = spec.Value
	// Op is an operation on an object.
	Op = spec.Op
	// Spec is a serial object specification (data type).
	Spec = spec.Spec
	// Node is a transaction program node.
	Node = program.Node
	// Outcome is what a parent program learns about a completed child.
	Outcome = program.Outcome
	// Protocol is a concurrency-control/recovery algorithm: a factory of
	// generic object automata.
	Protocol = object.Protocol
	// RunOptions configures the concurrent runner.
	RunOptions = generic.Options
	// RunStats summarizes a concurrent run.
	RunStats = generic.Stats
	// CheckResult is the outcome of the Theorem 8/19 checker.
	CheckResult = core.Result
	// Certificate carries the sibling order and object views of a
	// successful check.
	Certificate = core.Certificate
	// SG is a constructed serialization graph.
	SG = core.SG
	// Cycle is the failure certificate of an acyclicity check: the parent
	// whose SG(β, T) is cyclic and the cycle's transactions.
	Cycle = core.Cycle
	// IncrementalChecker maintains SG(β) online, one event at a time.
	IncrementalChecker = core.Incremental
	// Checker is a reusable checker bound to one system type: repeated
	// Build/Check/StreamPrefix calls reuse its scratch memory, so
	// steady-state checking is allocation-free. Results are valid until
	// the next call on the same Checker.
	Checker = core.Checker
	// BinaryTraceDecoder streams events out of a binary trace without
	// materializing the behavior.
	BinaryTraceDecoder = event.BinaryDecoder
)

// Root is the transaction name T0.
const Root = tname.Root

// Event kinds, for inspecting recorded behaviors.
const (
	EventCreate        = event.Create
	EventRequestCreate = event.RequestCreate
	EventRequestCommit = event.RequestCommit
	EventCommit        = event.Commit
	EventAbort         = event.Abort
	EventReportCommit  = event.ReportCommit
	EventReportAbort   = event.ReportAbort
)

// NewTree returns an empty system type containing only T0.
func NewTree() *Tree { return tname.NewTree() }

// Specs returns one instance of every built-in data type specification:
// register (read/write), counter, account, set, appendlog and queue.
func Specs() []Spec { return spec.All() }

// SpecByName resolves a built-in specification by name, or nil.
func SpecByName(name string) Spec { return spec.ByName(name) }

// Value constructors.

// IntValue wraps an integer as an operation argument or return value.
func IntValue(v int64) Value { return spec.Int(v) }

// BoolValue wraps a boolean.
func BoolValue(b bool) Value { return spec.Bool(b) }

// OKValue is the distinguished return value of blind updates.
func OKValue() Value { return spec.OK }

// Operation constructors for the built-in data types.

// ReadOp reads a register.
func ReadOp() Op { return Op{Kind: spec.OpRead} }

// WriteOp writes v to a register.
func WriteOp(v int64) Op { return Op{Kind: spec.OpWrite, Arg: spec.Int(v)} }

// IncOp increments a counter by n; DecOp decrements; GetOp reads it.
func IncOp(n int64) Op { return Op{Kind: spec.OpIncrement, Arg: spec.Int(n)} }

// DecOp decrements a counter by n.
func DecOp(n int64) Op { return Op{Kind: spec.OpDecrement, Arg: spec.Int(n)} }

// GetOp reads a counter.
func GetOp() Op { return Op{Kind: spec.OpGet} }

// DepositOp deposits amt into an account; WithdrawOp withdraws (returning
// true/false); BalanceOp reads the balance.
func DepositOp(amt int64) Op { return Op{Kind: spec.OpDeposit, Arg: spec.Int(amt)} }

// WithdrawOp withdraws amt from an account if the balance suffices.
func WithdrawOp(amt int64) Op { return Op{Kind: spec.OpWithdraw, Arg: spec.Int(amt)} }

// BalanceOp reads an account balance.
func BalanceOp() Op { return Op{Kind: spec.OpBalance} }

// InsertOp, RemoveOp, MemberOp and SizeOp operate on integer sets.
func InsertOp(v int64) Op { return Op{Kind: spec.OpInsert, Arg: spec.Int(v)} }

// RemoveOp removes v from a set.
func RemoveOp(v int64) Op { return Op{Kind: spec.OpRemove, Arg: spec.Int(v)} }

// MemberOp tests membership of v in a set.
func MemberOp(v int64) Op { return Op{Kind: spec.OpMember, Arg: spec.Int(v)} }

// SizeOp reads a set's cardinality.
func SizeOp() Op { return Op{Kind: spec.OpSize} }

// AppendOp appends v to an append log; LenOp reads its length.
func AppendOp(v int64) Op { return Op{Kind: spec.OpAppend, Arg: spec.Int(v)} }

// LenOp reads an append log's length.
func LenOp() Op { return Op{Kind: spec.OpLen} }

// EnqOp enqueues v; DeqOp dequeues the head (nil when empty).
func EnqOp(v int64) Op { return Op{Kind: spec.OpEnq, Arg: spec.Int(v)} }

// DeqOp dequeues the head of a queue.
func DeqOp() Op { return Op{Kind: spec.OpDeq} }

// Program combinators.

// Access declares an access leaf performing op on object obj.
func Access(label string, obj ObjID, op Op) *Node { return program.Access(label, obj, op) }

// Seq declares a subtransaction that runs its children sequentially.
func Seq(label string, children ...*Node) *Node { return program.SeqNode(label, children...) }

// Par declares a subtransaction that runs its children in parallel.
func Par(label string, children ...*Node) *Node { return program.ParNode(label, children...) }

// Protocols.

// MossLocking returns the paper's read/write locking protocol (§5), the
// default concurrency control of Argus and Camelot.
func MossLocking() Protocol { return locking.Protocol{} }

// UndoLogging returns the paper's undo logging protocol for arbitrary data
// types (§6.2).
func UndoLogging() Protocol { return undolog.Protocol{} }

// ReplicaConfig parameterizes QuorumReplication: N copies with R/W quorums
// (R+W must exceed N) and a seeded transient-unavailability process.
type ReplicaConfig = replica.Config

// QuorumReplication returns a protocol storing each read/write object as N
// versioned copies with quorum reads and writes, under Moss' lock
// discipline — the replicated-data extension the paper cites as [6].
// Register objects only.
func QuorumReplication(cfg ReplicaConfig) Protocol { return replica.Protocol{Cfg: cfg} }

// MultiversionTimestamps returns a Reed-style multiversion
// timestamp-ordering protocol over the given system type (one shared
// hierarchical clock per system). Register objects only. Its behaviors are
// serially correct but generally NOT certifiable by Check — the §7 gap;
// use the exhaustive oracle (cmd/sgcheck -oracle) on small traces.
func MultiversionTimestamps(tr *Tree) Protocol { return mvto.NewProtocol(tr) }

// Run executes the program of T0 concurrently under the generic controller
// and returns the recorded behavior. The trace can be fed to Check.
func Run(tr *Tree, root *Node, opts RunOptions) (Behavior, RunStats, error) {
	return generic.Run(tr, root, opts)
}

// RunSerial executes the program under the serial scheduler: siblings run
// one at a time and aborted transactions never start. It is the
// specification system, useful as a baseline and an oracle.
func RunSerial(tr *Tree, root *Node, seed int64) (Behavior, error) {
	return serial.Run(tr, root, serial.Options{Seed: seed})
}

// Check verifies the hypotheses of the paper's main theorem on a recorded
// behavior: simple-system well-formedness, appropriate return values and
// acyclicity of the serialization graph SG(β). On success the result
// carries a certificate from which serial correctness for T0 follows.
func Check(tr *Tree, b Behavior) *CheckResult { return core.Check(tr, b) }

// StreamCheck replays a behavior through the incremental checker and
// returns the index of the first event whose prefix has a cyclic SG,
// together with that prefix's cycle certificate, or (-1, nil) when every
// prefix passes. The construction is prefix-monotone, so the reported
// prefix is the shortest evidence the batch checker would find. For
// event-at-a-time feeding use NewIncrementalChecker.
func StreamCheck(tr *Tree, b Behavior) (int, *Cycle) {
	return core.StreamPrefix(tr, b)
}

// NewIncrementalChecker returns an online SG(β) maintainer: feed it events
// with Append, which reports the first cycle as it forms.
func NewIncrementalChecker(tr *Tree) *IncrementalChecker {
	return core.NewIncremental(tr)
}

// SerialWitness materializes the serial behavior γ promised by the
// theorem: γ|T0 equals the projection of b onto T0, every access value is
// re-derived from the serial objects, and sibling transactions execute in
// the certificate's order. It fails if the certificate does not actually
// support the behavior.
func SerialWitness(tr *Tree, root *Node, b Behavior, cert *Certificate) (Behavior, error) {
	return serial.Witness(tr, root, b, cert.Order)
}

// ValidateSerial checks that a behavior could have been produced by the
// serial system (used to certify witnesses).
func ValidateSerial(tr *Tree, b Behavior) error { return serial.Validate(tr, b) }

// NewChecker returns a reusable checker for tr. Prefer it over the free
// Check/StreamCheck functions when checking many behaviors over one system
// type: after the first call its scratch memory is recycled and the graph
// construction allocates nothing.
func NewChecker(tr *Tree) *Checker { return core.NewChecker(tr) }

// WriteTrace writes the behavior as an indented JSON trace.
func WriteTrace(w io.Writer, tr *Tree, b Behavior) error { return event.WriteTrace(w, tr, b) }

// WriteBinaryTrace writes the behavior in the compact binary trace format
// (varint-encoded, typically an order of magnitude smaller than JSON).
func WriteBinaryTrace(w io.Writer, tr *Tree, b Behavior) error {
	return event.WriteBinaryTrace(w, tr, b)
}

// ReadTrace parses a trace in either format, auto-detected from the
// leading bytes (binary traces start with the "NSGB" magic).
func ReadTrace(r io.Reader) (*Tree, Behavior, error) { return event.ReadTraceAuto(r) }

// NewBinaryTraceDecoder opens a binary trace for streaming: the system
// type is decoded eagerly, then Next yields one event at a time — feed
// them to an IncrementalChecker to check unbounded traces in constant
// memory.
func NewBinaryTraceDecoder(r io.Reader) (*BinaryTraceDecoder, error) {
	return event.NewBinaryDecoder(r)
}
