package event

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Trace is the on-disk form of a behavior together with the system type it
// was recorded against. cmd/nestedrun writes traces; cmd/sgcheck reads them.
type Trace struct {
	// Objects lists object names and their specification names, indexed by
	// ObjID.
	Objects []TraceObject `json:"objects"`
	// Tx lists transaction names indexed by TxID; entry 0 is T0.
	Tx []TraceTx `json:"tx"`
	// Events is the recorded behavior.
	Events []TraceEvent `json:"events"`
}

// TraceObject is one object name in a trace.
type TraceObject struct {
	Label string `json:"label"`
	Spec  string `json:"spec"`
}

// TraceTx is one transaction name in a trace.
type TraceTx struct {
	Parent int32       `json:"parent"` // -1 for T0
	Label  string      `json:"label"`
	Obj    int32       `json:"obj"` // -1 for non-accesses
	Op     string      `json:"op,omitempty"`
	OpArg  *TraceValue `json:"oparg,omitempty"`
}

// TraceEvent is one event in a trace.
type TraceEvent struct {
	Kind string      `json:"kind"`
	Tx   int32       `json:"tx"`
	Val  *TraceValue `json:"val,omitempty"`
	Obj  int32       `json:"obj,omitempty"`
}

// TraceValue is the JSON form of a spec.Value.
type TraceValue struct {
	Kind string `json:"kind"`
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

var valueKindNames = map[spec.ValueKind]string{
	spec.VNil: "nil", spec.VOK: "ok", spec.VInt: "int", spec.VBool: "bool", spec.VStr: "str",
}

func encodeValue(v spec.Value) *TraceValue {
	return &TraceValue{Kind: valueKindNames[v.Kind], Int: v.Int, Str: v.Str}
}

func decodeValue(tv *TraceValue) (spec.Value, error) {
	if tv == nil {
		return spec.Nil, nil
	}
	// Rebuild through the spec constructors so that decoded values carry
	// exactly the fields their kind selects (a hand-rolled struct literal
	// here could smuggle, say, a Str payload into a VInt value, breaking
	// == comparison downstream).
	switch tv.Kind {
	case "nil":
		return spec.Nil, nil
	case "ok":
		return spec.OK, nil
	case "int":
		return spec.Int(tv.Int), nil
	case "bool":
		return spec.Bool(tv.Int != 0), nil
	case "str":
		return spec.Str(tv.Str), nil
	default:
		return spec.Nil, fmt.Errorf("trace: unknown value kind %q", tv.Kind)
	}
}

var opKindByName = func() map[string]spec.OpKind {
	m := make(map[string]spec.OpKind)
	for k := spec.OpKind(1); k <= spec.OpDeq; k++ {
		m[k.String()] = k
	}
	return m
}()

var eventKindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := Create; k <= InformAbort; k++ {
		m[k.String()] = k
	}
	return m
}()

// EncodeTrace converts a tree and behavior into a serializable Trace.
func EncodeTrace(tr *tname.Tree, b Behavior) *Trace {
	t := &Trace{}
	for x := tname.ObjID(0); int(x) < tr.NumObjects(); x++ {
		t.Objects = append(t.Objects, TraceObject{Label: tr.ObjectLabel(x), Spec: tr.Spec(x).Name()})
	}
	for id := tname.TxID(0); int(id) < tr.NumTx(); id++ {
		tt := TraceTx{Parent: int32(tr.Parent(id)), Label: tr.Label(id), Obj: int32(tname.NoObj)}
		if tr.IsAccess(id) {
			op := tr.AccessOp(id)
			tt.Obj = int32(tr.AccessObject(id))
			tt.Op = op.Kind.String()
			if op.Arg.Kind != spec.VNil {
				tt.OpArg = encodeValue(op.Arg)
			}
		}
		t.Tx = append(t.Tx, tt)
	}
	for _, e := range b {
		te := TraceEvent{Kind: e.Kind.String(), Tx: int32(e.Tx), Obj: int32(e.Obj)}
		if e.Kind == RequestCommit || e.Kind == ReportCommit {
			te.Val = encodeValue(e.Val)
		}
		t.Events = append(t.Events, te)
	}
	return t
}

// nameTable checks a trace's object and transaction tables entry by entry
// and defines each name in a fresh tree. It is the one validation behind
// both codecs' headers, DecodeTrace's and the NSGB Cursor's, so the two
// accept the same system types and refuse the rest with the same message.
// Every malformed entry is an error here, never a tname panic: a name is
// defined only once its parent, label and object have been checked.
type nameTable struct {
	tr *tname.Tree
	// seen holds every (parent, label) defined so far: tname.Define takes
	// the uniqueness of a sibling label on trust.
	seen labelSet
}

// labelSet is a set of (parent, label) pairs of defined names, by open
// addressing with linear probing. A slot holds no pointer, only the pair's
// hash and the name (plus one; 0 is an empty slot): the pair itself is read
// back from the tree, so the set costs one allocation however many names
// it holds. A hit is exact — a probe compares parent and label, not just
// the hash — so the verdict does not depend on the probe sequence.
type labelSet struct {
	slots []labelSlot // a power of two, at most half full
	n     int
}

type labelSlot struct {
	hash uint32
	tx   int32
}

// hashName is FNV-1a over the parent's four bytes and the label.
func hashName(parent tname.TxID, label string) uint32 {
	h := uint32(2166136261)
	for p, k := uint32(parent), 0; k < 4; p, k = p>>8, k+1 {
		h = (h ^ p&0xff) * 16777619
	}
	for i := 0; i < len(label); i++ {
		h = (h ^ uint32(label[i])) * 16777619
	}
	return h
}

// reset empties the set and sizes it for n names.
func (s *labelSet) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	s.slots = make([]labelSlot, size)
	s.n = 0
}

// insert adds (tr.Parent(tx), tr.Label(tx)) under the given hash, the
// caller having checked it is absent. tx need not be defined yet: insert
// never reads the pair.
func (s *labelSet) insert(h uint32, tx tname.TxID) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.reset(2 * s.n)
		for _, sl := range old {
			if sl.tx != 0 {
				s.insert(sl.hash, tname.TxID(sl.tx-1))
			}
		}
	}
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s.slots[i].tx == 0 {
			s.slots[i] = labelSlot{hash: h, tx: int32(tx) + 1}
			s.n++
			return
		}
	}
}

// has reports whether tr defines a name (parent, label) in the set.
func (s *labelSet) has(tr *tname.Tree, h uint32, parent tname.TxID, label string) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; s.slots[i].tx != 0; i = (i + 1) & mask {
		if sl := s.slots[i]; sl.hash == h {
			if tx := tname.TxID(sl.tx - 1); tr.Parent(tx) == parent && tr.Label(tx) == label {
				return true
			}
		}
	}
	return false
}

func newNameTable() *nameTable { return &nameTable{tr: tname.NewTree()} }

// object defines object i, label, under the specification named specName.
func (nt *nameTable) object(i int, label, specName string) error {
	sp := spec.ByName(specName)
	if sp == nil {
		return fmt.Errorf("trace: unknown spec %q", specName)
	}
	if nt.tr.Object(label) != tname.NoObj {
		return fmt.Errorf("trace: object %d reuses label %q", i, label)
	}
	nt.tr.AddObject(label, sp)
	return nil
}

// grow reserves room for a transaction table of n entries, T0 included,
// whose labels take text bytes.
func (nt *nameTable) grow(n, text int) {
	nt.tr.Grow(n, text)
	nt.seen.reset(n)
}

// check checks transaction entry i. Entry 0 must be T0 (parent -1; the rest
// of it is ignored). Every other entry names a parent defined before it that
// is not an access, a label none of its siblings has, and, if it is an
// access (obj >= 0), an object of the table.
func (nt *nameTable) check(i int, parent int64, label string, obj int64) error {
	if i == 0 {
		if parent != -1 {
			return errors.New("trace: entry 0 must be T0")
		}
		return nil
	}
	if parent < 0 || parent >= int64(i) {
		return fmt.Errorf("trace: tx %d has bad parent %d", i, parent)
	}
	if nt.tr.IsAccess(tname.TxID(parent)) {
		return fmt.Errorf("trace: tx %d is a child of access %d", i, parent)
	}
	h := hashName(tname.TxID(parent), label)
	if nt.seen.has(nt.tr, h, tname.TxID(parent), label) {
		return fmt.Errorf("trace: tx %d duplicates name %q under parent %d", i, label, parent)
	}
	// Entry i passes and is defined as name i before the next check reads
	// the set.
	nt.seen.insert(h, tname.TxID(i))
	if obj >= int64(nt.tr.NumObjects()) {
		return fmt.Errorf("trace: tx %d accesses unknown object %d", i, obj)
	}
	return nil
}

// define defines an entry other than T0 that check has passed; op is
// ignored unless the entry is an access.
func (nt *nameTable) define(parent int64, label string, obj int64, op spec.Op) {
	x := tname.NoObj
	if obj >= 0 {
		x = tname.ObjID(obj)
	} else {
		op = spec.Op{}
	}
	nt.tr.Define(tname.TxID(parent), label, x, op)
}

// DecodeTrace reconstructs the tree and behavior from a Trace.
//
// Every malformed input must surface as an error, never as a panic: the
// header goes through nameTable, the same checks the NSGB decoder runs.
// FuzzTraceRoundTrip drives this contract with arbitrary inputs.
func DecodeTrace(t *Trace) (*tname.Tree, Behavior, error) {
	nt := newNameTable()
	for i, to := range t.Objects {
		if err := nt.object(i, to.Label, to.Spec); err != nil {
			return nil, nil, err
		}
	}
	text := 0
	for _, tt := range t.Tx {
		text += len(tt.Label)
	}
	nt.grow(len(t.Tx), text)
	for i, tt := range t.Tx {
		parent, obj := int64(tt.Parent), int64(tt.Obj)
		if err := nt.check(i, parent, tt.Label, obj); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			continue
		}
		var op spec.Op
		if obj >= 0 {
			var ok bool
			if op.Kind, ok = opKindByName[tt.Op]; !ok {
				return nil, nil, fmt.Errorf("trace: tx %d has unknown op %q", i, tt.Op)
			}
			var err error
			if op.Arg, err = decodeValue(tt.OpArg); err != nil {
				return nil, nil, err
			}
		}
		nt.define(parent, tt.Label, obj, op)
	}
	tr := nt.tr
	var b Behavior
	for i, te := range t.Events {
		kind, ok := eventKindByName[te.Kind]
		if !ok {
			return nil, nil, fmt.Errorf("trace: event %d has unknown kind %q", i, te.Kind)
		}
		if te.Tx < 0 || int(te.Tx) >= tr.NumTx() {
			return nil, nil, fmt.Errorf("trace: event %d names unknown tx %d", i, te.Tx)
		}
		val, err := decodeValue(te.Val)
		if err != nil {
			return nil, nil, err
		}
		e := Event{Kind: kind, Tx: tname.TxID(te.Tx), Val: val, Obj: tname.ObjID(te.Obj)}
		if kind != InformCommit && kind != InformAbort {
			e.Obj = tname.NoObj
		} else if te.Obj < 0 || int(te.Obj) >= tr.NumObjects() {
			return nil, nil, fmt.Errorf("trace: event %d informs unknown object %d", i, te.Obj)
		}
		b = append(b, e)
	}
	return tr, b, nil
}

// WriteTrace writes the behavior as indented JSON.
func WriteTrace(w io.Writer, tr *tname.Tree, b Behavior) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(EncodeTrace(tr, b))
}

// ReadTrace parses a JSON trace.
func ReadTrace(r io.Reader) (*tname.Tree, Behavior, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, nil, fmt.Errorf("trace: decode: %w", err)
	}
	return DecodeTrace(&t)
}
