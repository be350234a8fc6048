// Package tname implements the system type of Fekete, Lynch & Weihl (1990):
// the tree of transaction names, rooted at T0, whose leaves below the root
// may be designated as accesses to named objects.
//
// The paper treats the name tree as infinite and "known in advance by all
// components of a system"; we realize the part of it a run uses, one name at
// a time. Names are small integer IDs (TxID) assigned in creation order, so
// a parent always precedes its children and ancestor/descendant/lca queries
// are cheap pointer-free walks up a slice of parents.
//
// A name's record holds no pointer: its label is a span of one text arena
// shared by every name, and a string argument of its operation is an index
// in one side table, so the garbage collector never scans the names and the
// tree keeps no object per name.
//
// A name enters the tree one of two ways. Define appends a name its caller
// knows to be new (the server makes its names unique by construction, and
// the trace decoders check each table entry) and touches nothing but that
// slice. Child and Access intern: they return the existing name of that
// label under that parent, or define it; they serve offline callers that
// mention a name more than once, through a label index built only when the
// first lookup asks for it.
package tname

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"nestedsg/internal/spec"
)

// TxID identifies a transaction name. The root T0 is always ID 0.
// The zero value therefore denotes T0; callers that need "no transaction"
// should use None.
type TxID int32

// None is a sentinel TxID meaning "no transaction". It is never a valid name.
const None TxID = -1

// Root is the transaction name T0, the "mythical" root of the transaction
// tree that models the environment of the system.
const Root TxID = 0

// ObjID identifies an interned object name X.
type ObjID int32

// NoObj is a sentinel ObjID meaning "no object".
const NoObj ObjID = -1

// node is the record for one transaction name: 32 bytes, none of them a
// pointer.
type node struct {
	parent TxID
	depth  int32 // depth of T0 is 0
	// Access metadata; obj == NoObj for non-access names. An access
	// performs op with the argument spec.Pack split into argKind and arg.
	obj ObjID
	// The label is text[label : label+size].
	label uint32
	arg   int64
	size  uint32
	op    spec.OpKind
	// argKind is the kind of the access's argument.
	argKind spec.ValueKind
}

// object is the interned record for one object name.
type object struct {
	label string
	sp    spec.Spec
}

// Tree is a system type: the set of transaction names organized into a tree
// by parent, together with the set of object names and, for each access
// name, the object it accesses and the operation it performs.
//
// A Tree is not safe for concurrent mutation; the runners in this module
// define all names they need before or while holding their own locks. Child
// and Access mutate even when they find the name: they catch the label
// index up.
type Tree struct {
	nodes []node
	// text holds every label back to back, in definition order. It is
	// append-only: a byte once written is never written again, which is
	// what lets Label hand out strings that share it.
	text []byte
	// strs holds the string arguments of accesses, by spec.Pack.
	strs    []string
	objects []object
	// byLabel resolves (parent, label) for Child and Access. It is nil
	// until the first lookup, and covers nodes[:indexed]: each lookup first
	// catches it up with the names defined since, so a tree that is only
	// ever Defined into never hashes a label.
	byLabel    map[childKey]TxID
	indexed    int
	objByLabel map[string]ObjID
}

type childKey struct {
	parent TxID
	label  string
}

// NewTree returns a system type containing only T0 and no objects.
func NewTree() *Tree {
	t := &Tree{objByLabel: make(map[string]ObjID), indexed: 1} // T0 is no one's child
	t.nodes = append(t.nodes, node{parent: None, depth: 0, obj: NoObj, size: 2})
	t.text = append(t.text, "T0"...)
	return t
}

// Grow reserves room for n more transaction names whose labels take text
// bytes in all, so that the next n Defines of such names do not allocate
// (an access with a string argument aside).
func (t *Tree) Grow(n, text int) {
	t.nodes = slices.Grow(t.nodes, n)
	t.text = slices.Grow(t.text, text)
}

// GrowObjects reserves room for n more object names. The label index of a
// tree with no objects yet is made anew at that size, so that interning
// them does not rehash it.
func (t *Tree) GrowObjects(n int) {
	if len(t.objects) == 0 {
		t.objByLabel = make(map[string]ObjID, n)
	}
	t.objects = slices.Grow(t.objects, n)
}

// NumTx reports how many transaction names the tree holds.
func (t *Tree) NumTx() int { return len(t.nodes) }

// NumObjects reports how many object names have been interned.
func (t *Tree) NumObjects() int { return len(t.objects) }

// AddObject interns an object name with the given serial specification.
// Interning the same label twice returns the original ID; the specification
// must match.
func (t *Tree) AddObject(label string, sp spec.Spec) ObjID {
	if id, ok := t.objByLabel[label]; ok {
		if t.objects[id].sp.Name() != sp.Name() {
			panic(fmt.Sprintf("tname: object %q re-interned with different spec %q (was %q)",
				label, sp.Name(), t.objects[id].sp.Name()))
		}
		return id
	}
	id := ObjID(len(t.objects))
	t.objects = append(t.objects, object{label: label, sp: sp})
	t.objByLabel[label] = id
	return id
}

// AddNewObject interns label as a new object with the given serial
// specification and reports true, or reports false and leaves the tree as
// it was when label is already interned. A new label costs one map
// operation, where Object followed by AddObject costs three.
func (t *Tree) AddNewObject(label string, sp spec.Spec) bool {
	n := len(t.objByLabel)
	t.objByLabel[label] = ObjID(len(t.objects))
	if len(t.objByLabel) == n {
		// The label was there: give it back its own ID.
		t.objByLabel[label] = ObjID(slices.IndexFunc(t.objects, func(o object) bool { return o.label == label }))
		return false
	}
	t.objects = append(t.objects, object{label: label, sp: sp})
	return true
}

// Object returns the interned ID for an object label, or NoObj.
func (t *Tree) Object(label string) ObjID {
	if id, ok := t.objByLabel[label]; ok {
		return id
	}
	return NoObj
}

// ObjectLabel returns the label an object was interned under.
func (t *Tree) ObjectLabel(x ObjID) string { return t.objects[x].label }

// Spec returns the serial specification of object x.
func (t *Tree) Spec(x ObjID) spec.Spec { return t.objects[x].sp }

// Child interns (or resolves) the non-access child of parent with the given
// label. It panics if parent is an access: accesses are leaves.
func (t *Tree) Child(parent TxID, label string) TxID {
	return t.intern(parent, label, NoObj, spec.Op{})
}

// Access interns (or resolves) an access child of parent: a leaf that
// performs op on object x. The paper regards all parameters of an access as
// encoded in its name, so (x, op) is part of the identity of the name.
func (t *Tree) Access(parent TxID, label string, x ObjID, op spec.Op) TxID {
	if x < 0 || int(x) >= len(t.objects) {
		panic(fmt.Sprintf("tname: access %q to unknown object %d", label, x))
	}
	return t.intern(parent, label, x, op)
}

func (t *Tree) intern(parent TxID, label string, x ObjID, op spec.Op) TxID {
	if t.IsAccess(parent) {
		panic(fmt.Sprintf("tname: %s is an access and cannot have children", t.Name(parent)))
	}
	if t.byLabel == nil {
		t.byLabel = make(map[childKey]TxID, len(t.nodes))
	}
	for ; t.indexed < len(t.nodes); t.indexed++ {
		key := childKey{t.nodes[t.indexed].parent, t.Label(TxID(t.indexed))}
		if _, dup := t.byLabel[key]; !dup { // a Defined duplicate: the first one names it
			t.byLabel[key] = TxID(t.indexed)
		}
	}
	if id, ok := t.byLabel[childKey{parent, label}]; ok {
		if n := &t.nodes[id]; n.obj != x || x != NoObj && t.accessOp(n) != op {
			panic(fmt.Sprintf("tname: name %s re-interned with different access metadata", t.Name(id)))
		}
		return id
	}
	return t.Define(parent, label, x, op)
}

// Define appends a new name: the child of parent with the given label, and
// an access to x performing op unless x is NoObj. The caller vouches that
// parent has no child of that label yet: Define neither looks the label up
// nor records it, so it hashes nothing and, within room reserved by Grow,
// allocates nothing: it copies the label into the tree's text, and keeps
// no reference to the caller's string. Validate reports a label given
// twice. Define panics if parent is an access or x is not an object. The
// op of a name that is not an access is not kept.
//
//sgvet:hotpath
func (t *Tree) Define(parent TxID, label string, x ObjID, op spec.Op) TxID {
	p := &t.nodes[parent]
	if p.obj != NoObj || x != NoObj && (x < 0 || int(x) >= len(t.objects)) || uint64(len(t.text))+uint64(len(label)) > math.MaxUint32 {
		t.badDefine(parent, label, x)
	}
	depth := p.depth + 1
	// The record is written in place, field by field: a node built whole
	// is copied in through the stack.
	t.nodes = append(t.nodes, node{})
	n := &t.nodes[len(t.nodes)-1]
	n.parent, n.depth, n.obj, n.label, n.size = parent, depth, x, uint32(len(t.text)), uint32(len(label))
	if x != NoObj {
		n.op = op.Kind
		n.argKind, n.arg, t.strs = spec.Pack(op.Arg, t.strs)
	}
	t.text = append(t.text, label...)
	return TxID(len(t.nodes) - 1)
}

// badDefine panics with what is wrong with a Define: a child of an access,
// an access to an unknown object, or a label past the text's 4 GiB.
func (t *Tree) badDefine(parent TxID, label string, x ObjID) {
	if t.IsAccess(parent) {
		panic(fmt.Sprintf("tname: %s is an access and cannot have children", t.Name(parent)))
	}
	if x != NoObj && (x < 0 || int(x) >= len(t.objects)) {
		panic(fmt.Sprintf("tname: access %q to unknown object %d", label, x))
	}
	panic(fmt.Sprintf("tname: no room for a label of %d bytes after %d", len(label), len(t.text)))
}

// Parent returns the parent of tx, or None for T0.
func (t *Tree) Parent(tx TxID) TxID { return t.nodes[tx].parent }

// Depth returns the depth of tx (T0 has depth 0).
func (t *Tree) Depth(tx TxID) int { return int(t.nodes[tx].depth) }

// Label returns the local label tx was defined under, without copying it:
// the string shares its bytes with the tree's text. That is sound because
// the text is append-only. Define writes a label's bytes once, past every
// byte written before, and nothing writes them again; when the text
// regrows, the old array is left as it was and lives on for as long as a
// string points into it. So the string never changes, even after more
// Defines. A copy would allocate once per name wherever the string outlives
// the call: as a key of Validate's map or the interning index, and in the
// JSON encoder's records. Recovery validates every name it replays, and a
// copying Label takes BenchmarkE18Recover from 856 to 1 006 allocations.
// This is the package's one use of unsafe; TestLabelSharesStableText
// holds it to that.
func (t *Tree) Label(tx TxID) string {
	n := &t.nodes[tx]
	if n.size == 0 {
		return ""
	}
	return unsafe.String(&t.text[n.label], n.size)
}

// Children returns the children of tx defined so far, in creation order, in
// a fresh slice. It scans every name defined after tx: it serves walks and
// pretty-printers, not the checkers.
func (t *Tree) Children(tx TxID) []TxID {
	var out []TxID
	for id := int(tx) + 1; id < len(t.nodes); id++ {
		if t.nodes[id].parent == tx {
			out = append(out, TxID(id))
		}
	}
	return out
}

// IsAccess reports whether tx is an access (a leaf that operates on data).
func (t *Tree) IsAccess(tx TxID) bool { return t.nodes[tx].obj != NoObj }

// AccessObject returns the object accessed by tx, or NoObj if tx is not an
// access.
func (t *Tree) AccessObject(tx TxID) ObjID { return t.nodes[tx].obj }

// AccessOp returns the operation performed by access tx. It panics if tx is
// not an access.
func (t *Tree) AccessOp(tx TxID) spec.Op {
	if !t.IsAccess(tx) {
		panic(fmt.Sprintf("tname: %s is not an access", t.Name(tx)))
	}
	return t.accessOp(&t.nodes[tx])
}

// accessOp rebuilds the operation of access n.
func (t *Tree) accessOp(n *node) spec.Op {
	return spec.Op{Kind: n.op, Arg: spec.Unpack(n.argKind, n.arg, t.strs)}
}

// IsAncestor reports whether a is an ancestor of b. Following the paper, a
// transaction is an ancestor (and descendant) of itself.
func (t *Tree) IsAncestor(a, b TxID) bool {
	da, db := t.nodes[a].depth, t.nodes[b].depth
	if da > db {
		return false
	}
	for db > da {
		b = t.nodes[b].parent
		db--
	}
	return a == b
}

// IsDescendant reports whether a is a descendant of b.
func (t *Tree) IsDescendant(a, b TxID) bool { return t.IsAncestor(b, a) }

// IsOrdered reports whether a and b lie on a common root-to-leaf path, i.e.
// one is an ancestor of the other.
func (t *Tree) IsOrdered(a, b TxID) bool {
	return t.IsAncestor(a, b) || t.IsAncestor(b, a)
}

// LCA returns the least common ancestor of a and b.
func (t *Tree) LCA(a, b TxID) TxID {
	da, db := t.nodes[a].depth, t.nodes[b].depth
	for da > db {
		a = t.nodes[a].parent
		da--
	}
	for db > da {
		b = t.nodes[b].parent
		db--
	}
	for a != b {
		a = t.nodes[a].parent
		b = t.nodes[b].parent
	}
	return a
}

// ChildAncestor returns the child of anc that is an ancestor of desc.
// It panics unless anc is a proper ancestor of desc.
func (t *Tree) ChildAncestor(anc, desc TxID) TxID {
	dAnc, d := t.nodes[anc].depth, t.nodes[desc].depth
	if d <= dAnc {
		panic("tname: ChildAncestor requires a proper ancestor")
	}
	for d > dAnc+1 {
		desc = t.nodes[desc].parent
		d--
	}
	if t.nodes[desc].parent != anc {
		panic("tname: ChildAncestor: not an ancestor")
	}
	return desc
}

// Ancestors returns the ancestors of tx from tx up to and including T0.
func (t *Tree) Ancestors(tx TxID) []TxID {
	out := make([]TxID, 0, t.nodes[tx].depth+1)
	for u := tx; u != None; u = t.nodes[u].parent {
		out = append(out, u)
	}
	return out
}

// Name returns the fully qualified, slash-separated name of tx, e.g.
// "T0/1/2.read(x)".
func (t *Tree) Name(tx TxID) string {
	if tx == None {
		return "<none>"
	}
	var parts []string
	for u := tx; u != None; u = t.nodes[u].parent {
		parts = append(parts, t.Label(u))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	s := strings.Join(parts, "/")
	if t.IsAccess(tx) {
		s += fmt.Sprintf("[%s %s]", t.objects[t.nodes[tx].obj].label, t.accessOp(&t.nodes[tx]))
	}
	return s
}

// Validate checks the invariants of the tree, among them that no two
// siblings share a label — the uniqueness Define takes on trust. Tests call
// it, and so do the fault simulator's final drain, the server tests'
// shutdown check and recovery. It reports the violation at the lowest
// name.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 || t.nodes[0].parent != None || t.nodes[0].depth != 0 {
		return fmt.Errorf("tname: malformed root")
	}
	bad, err := len(t.nodes), error(nil)
	for id := 1; id < len(t.nodes) && err == nil; id++ {
		if err = t.checkNode(TxID(id)); err != nil {
			bad = id
		}
	}
	if first, dup := t.firstDuplicate(bad); dup != None {
		return fmt.Errorf("tname: nodes %d and %d are both named %s", first, dup, t.Name(dup))
	}
	return err
}

// checkNode checks the invariants of name id against the names before it.
func (t *Tree) checkNode(id TxID) error {
	n := t.nodes[id]
	switch {
	case n.parent < 0 || int(n.parent) >= len(t.nodes):
		return fmt.Errorf("tname: node %d has out-of-range parent %d", id, n.parent)
	case n.parent >= id:
		return fmt.Errorf("tname: node %d has non-topological parent %d", id, n.parent)
	case n.depth != t.nodes[n.parent].depth+1:
		return fmt.Errorf("tname: node %d has wrong depth", id)
	case t.nodes[n.parent].obj != NoObj:
		return fmt.Errorf("tname: node %d is a child of an access", id)
	case n.obj != NoObj && int(n.obj) >= len(t.objects):
		return fmt.Errorf("tname: node %d accesses unknown object %d", id, n.obj)
	}
	return nil
}

// firstDuplicate returns, among the names below end, the lowest one whose
// label an earlier sibling already has, and that sibling's first name with
// it; dup is None when the labels are unique. Siblings are grouped by one
// counting pass over their parents and sorted by label within each group,
// so no label is hashed.
func (t *Tree) firstDuplicate(end int) (first, dup TxID) {
	first, dup = None, None
	start := make([]int32, end+1)
	for id := 1; id < end; id++ {
		start[t.nodes[id].parent+1]++
	}
	for p := range end {
		start[p+1] += start[p]
	}
	kids := make([]TxID, end)
	for id := 1; id < end; id++ {
		p := t.nodes[id].parent
		kids[start[p]] = TxID(id)
		start[p]++
	}
	// start[p] now ends p's group, and the group before it ends where
	// p's begins.
	lo := int32(0)
	for p := range end {
		group := kids[lo:start[p]]
		lo = start[p]
		if len(group) < 2 {
			continue
		}
		// Siblings are one name exactly when their labels are one, so
		// labels, not names, are compared: sameAsLast(i) reports that
		// group[i] has group[i-1]'s label.
		sameAsLast := func(i int) bool { return strings.Compare(t.Label(group[i]), t.Label(group[i-1])) == 0 }
		slices.SortFunc(group, func(a, b TxID) int {
			if c := strings.Compare(t.Label(a), t.Label(b)); c != 0 {
				return c
			}
			return int(a - b)
		})
		for i := 1; i < len(group); i++ {
			if b := group[i]; (dup == None || b < dup) && sameAsLast(i) && (i == 1 || !sameAsLast(i-1)) {
				first, dup = group[i-1], b
			}
		}
	}
	return first, dup
}
