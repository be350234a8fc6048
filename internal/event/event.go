// Package event defines the serial actions of the paper's systems and the
// finite behaviors (sequences of events) that every checker in this module
// consumes.
//
// The serial actions (§2.2.4) are CREATE, REQUEST_CREATE, REQUEST_COMMIT,
// COMMIT, ABORT, REPORT_COMMIT and REPORT_ABORT. Generic systems (§5.1) add
// the INFORM_COMMIT_AT(X) and INFORM_ABORT_AT(X) inputs of generic objects;
// serial(β) strips those, leaving the serial actions.
package event

import (
	"fmt"
	"strings"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Kind identifies an action kind.
type Kind uint8

// Action kinds. The first block are the serial actions; the Inform kinds
// exist only in generic behaviors.
const (
	KindInvalid Kind = iota
	Create
	RequestCreate
	RequestCommit
	Commit
	Abort
	ReportCommit
	ReportAbort
	InformCommit
	InformAbort
)

var kindNames = [...]string{
	KindInvalid:   "INVALID",
	Create:        "CREATE",
	RequestCreate: "REQUEST_CREATE",
	RequestCommit: "REQUEST_COMMIT",
	Commit:        "COMMIT",
	Abort:         "ABORT",
	ReportCommit:  "REPORT_COMMIT",
	ReportAbort:   "REPORT_ABORT",
	InformCommit:  "INFORM_COMMIT",
	InformAbort:   "INFORM_ABORT",
}

// String returns the paper's name for the action kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsSerial reports whether the kind is a serial action kind (everything
// except the INFORM inputs of generic objects).
func (k Kind) IsSerial() bool { return k >= Create && k <= ReportAbort }

// IsCompletion reports whether the kind is a completion action (COMMIT or
// ABORT, §2.2.4).
func (k Kind) IsCompletion() bool { return k == Commit || k == Abort }

// IsReport reports whether the kind is a report action.
func (k Kind) IsReport() bool { return k == ReportCommit || k == ReportAbort }

// Event is a single occurrence of an action in a behavior.
//
//   - Create, RequestCreate, Commit, Abort, ReportAbort: Tx names the
//     transaction; Val is unused.
//   - RequestCommit, ReportCommit: Tx names the transaction, Val its return
//     value.
//   - InformCommit, InformAbort: Tx names the completed transaction and Obj
//     the object being informed; Obj is NoObj for every other kind.
type Event struct {
	Kind Kind
	Tx   tname.TxID
	Val  spec.Value
	Obj  tname.ObjID
}

// NewEvent builds a serial event with no object component.
func NewEvent(k Kind, tx tname.TxID) Event {
	return Event{Kind: k, Tx: tx, Obj: tname.NoObj}
}

// NewValEvent builds a serial event carrying a value.
func NewValEvent(k Kind, tx tname.TxID, v spec.Value) Event {
	return Event{Kind: k, Tx: tx, Val: v, Obj: tname.NoObj}
}

// NewInform builds an INFORM_COMMIT/INFORM_ABORT event at object x.
func NewInform(k Kind, tx tname.TxID, x tname.ObjID) Event {
	return Event{Kind: k, Tx: tx, Obj: x}
}

// Packed is an event in 16 bytes that hold no pointer: the form in which
// the server's log keeps β, and into which recovery decodes its WAL
// (DecodeWalRecord). X is the object of an INFORM, and otherwise the
// integer spec.Pack splits the event's value into beside its kind VK; a
// string value's X indexes a side table of strings. The server's log
// rebuilds the events through the event constructors (logView.Run).
type Packed struct {
	X    int64
	Tx   tname.TxID
	Kind Kind
	VK   spec.ValueKind
}

// Pack packs e, appending its string value, if any, to strs.
//
//sgvet:hotpath
func Pack(e Event, strs []string) (Packed, []string) {
	p := Packed{Tx: e.Tx, Kind: e.Kind}
	switch e.Kind {
	case InformCommit, InformAbort:
		p.X = int64(e.Obj)
	default:
		p.VK, p.X, strs = spec.Pack(e.Val, strs)
	}
	return p, strs
}

// Format renders the event using fully qualified transaction names.
func (e Event) Format(tr *tname.Tree) string {
	switch e.Kind {
	case RequestCommit, ReportCommit:
		return fmt.Sprintf("%s(%s, %s)", e.Kind, tr.Name(e.Tx), e.Val)
	case InformCommit, InformAbort:
		return fmt.Sprintf("%s_AT(%s)OF(%s)", e.Kind, tr.ObjectLabel(e.Obj), tr.Name(e.Tx))
	default:
		return fmt.Sprintf("%s(%s)", e.Kind, tr.Name(e.Tx))
	}
}

// Transaction returns transaction(π) as defined in §2.2.4: the transaction
// at which the action "happens" — the parent for requests and reports, the
// named transaction otherwise. Completion actions have no transaction() in
// the paper (they are scheduler-internal decisions); for them this returns
// the named transaction, which matches the paper's lowtransaction.
func (e Event) Transaction(tr *tname.Tree) tname.TxID {
	switch e.Kind {
	case RequestCreate, ReportCommit, ReportAbort:
		return tr.Parent(e.Tx)
	default:
		return e.Tx
	}
}

// HighTransaction returns hightransaction(π): transaction(π) for
// non-completion actions and parent(T) for a completion action of T.
func (e Event) HighTransaction(tr *tname.Tree) tname.TxID {
	if e.Kind.IsCompletion() {
		return tr.Parent(e.Tx)
	}
	return e.Transaction(tr)
}

// LowTransaction returns lowtransaction(π): transaction(π) for
// non-completion actions and T itself for a completion action of T.
func (e Event) LowTransaction(tr *tname.Tree) tname.TxID {
	if e.Kind.IsCompletion() {
		return e.Tx
	}
	return e.Transaction(tr)
}

// Object returns object(π) for CREATE or REQUEST_COMMIT events whose
// transaction is an access, and NoObj otherwise.
func (e Event) Object(tr *tname.Tree) tname.ObjID {
	if (e.Kind == Create || e.Kind == RequestCommit) && tr.IsAccess(e.Tx) {
		return tr.AccessObject(e.Tx)
	}
	return tname.NoObj
}

// Behavior is a finite sequence of events — a (prefix of a) behavior of one
// of the systems in this module.
type Behavior []Event

// Source is read access to a behavior kept in some other form — a server's
// packed event log, say — so that a checker reads it in place instead of
// copying it into a Behavior first. Len is the number of events. Run
// returns the events from index i on, at least one when i < Len: a span of
// the source's own storage when it holds Events, and otherwise buf, filled
// with as many as fit. A Behavior is a Source of itself, whose first Run is
// the whole behavior.
type Source interface {
	Len() int
	Run(i int, buf []Event) []Event
}

// Len returns the number of events, as Source asks.
func (b Behavior) Len() int { return len(b) }

// Run returns b[i:]; b holds its events, so buf is not needed.
func (b Behavior) Run(i int, _ []Event) []Event { return b[i:] }

// Collect returns the behavior src holds: src itself when it is a
// Behavior, and otherwise a fresh copy of its events.
func Collect(src Source) Behavior {
	if b, ok := src.(Behavior); ok {
		return b
	}
	b := make(Behavior, 0, src.Len())
	for len(b) < cap(b) {
		b = append(b, src.Run(len(b), b[len(b):cap(b)])...)
	}
	return b
}

// Serial returns serial(β): the subsequence of serial actions.
func (b Behavior) Serial() Behavior {
	out := make(Behavior, 0, len(b))
	for _, e := range b {
		if e.Kind.IsSerial() {
			out = append(out, e)
		}
	}
	return out
}

// ProjectTx returns β|T: the subsequence of serial actions π with
// transaction(π) = T.
func (b Behavior) ProjectTx(tr *tname.Tree, t tname.TxID) Behavior {
	var out Behavior
	for _, e := range b {
		if e.Kind.IsSerial() && !e.Kind.IsCompletion() && e.Transaction(tr) == t {
			out = append(out, e)
		}
	}
	return out
}

// ProjectObj returns β|X: the subsequence of serial actions π with
// object(π) = X (CREATE and REQUEST_COMMIT events of accesses to X).
func (b Behavior) ProjectObj(tr *tname.Tree, x tname.ObjID) Behavior {
	var out Behavior
	for _, e := range b {
		if e.Object(tr) == x {
			out = append(out, e)
		}
	}
	return out
}

// CommitSet returns the set of transactions with a COMMIT event in b.
func (b Behavior) CommitSet() map[tname.TxID]bool {
	out := make(map[tname.TxID]bool)
	for _, e := range b {
		if e.Kind == Commit {
			out[e.Tx] = true
		}
	}
	return out
}

// AbortSet returns the set of transactions with an ABORT event in b.
func (b Behavior) AbortSet() map[tname.TxID]bool {
	out := make(map[tname.TxID]bool)
	for _, e := range b {
		if e.Kind == Abort {
			out[e.Tx] = true
		}
	}
	return out
}

// IsOrphan reports whether t is an orphan in b: some ancestor of t has an
// ABORT event in b (§2.2.4).
func IsOrphan(tr *tname.Tree, aborted map[tname.TxID]bool, t tname.TxID) bool {
	for u := t; u != tname.None; u = tr.Parent(u) {
		if aborted[u] {
			return true
		}
	}
	return false
}

// IsLive reports whether t is live in b: b contains CREATE(t) but no
// completion event for t.
func (b Behavior) IsLive(t tname.TxID) bool {
	created, completed := false, false
	for _, e := range b {
		if e.Tx != t {
			continue
		}
		switch e.Kind {
		case Create:
			created = true
		case Commit, Abort:
			completed = true
		default:
			// Requests, reports and informs do not affect liveness.
		}
	}
	return created && !completed
}

// Format renders the behavior one event per line.
func (b Behavior) Format(tr *tname.Tree) string {
	var sb strings.Builder
	for i, e := range b {
		fmt.Fprintf(&sb, "%4d  %s\n", i, e.Format(tr))
	}
	return sb.String()
}

// Equal reports whether two behaviors are identical event sequences.
func (b Behavior) Equal(o Behavior) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Operations extracts the sequence of operations (access, value, object)
// corresponding to the REQUEST_COMMIT events of accesses in b — the paper's
// operations(β) operator.
func (b Behavior) Operations(tr *tname.Tree) []AccessOp {
	var out []AccessOp
	for _, e := range b {
		if e.Kind == RequestCommit && tr.IsAccess(e.Tx) {
			out = append(out, AccessOp{
				Tx:  e.Tx,
				Obj: tr.AccessObject(e.Tx),
				OV:  spec.OpVal{Op: tr.AccessOp(e.Tx), Val: e.Val},
			})
		}
	}
	return out
}

// AccessOp is an operation (T, v) with its object, as extracted from a
// behavior.
type AccessOp struct {
	Tx  tname.TxID
	Obj tname.ObjID
	OV  spec.OpVal
}
