package tname

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"

	"nestedsg/internal/spec"
)

// buildSample interns a small fixed tree:
//
//	T0
//	├── a        (composite)
//	│   ├── a1   (composite)
//	│   │   └── r (access: read x)
//	│   └── a2   (access: write x)
//	└── b        (composite)
//	    └── b1   (access: read y)
func buildSample(t *testing.T) (*Tree, map[string]TxID, map[string]ObjID) {
	t.Helper()
	tr := NewTree()
	x := tr.AddObject("x", spec.Register{})
	y := tr.AddObject("y", spec.Register{})
	a := tr.Child(Root, "a")
	a1 := tr.Child(a, "a1")
	r := tr.Access(a1, "r", x, spec.Op{Kind: spec.OpRead})
	a2 := tr.Access(a, "a2", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)})
	b := tr.Child(Root, "b")
	b1 := tr.Access(b, "b1", y, spec.Op{Kind: spec.OpRead})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr,
		map[string]TxID{"a": a, "a1": a1, "r": r, "a2": a2, "b": b, "b1": b1},
		map[string]ObjID{"x": x, "y": y}
}

func TestRootProperties(t *testing.T) {
	tr := NewTree()
	if tr.Parent(Root) != None {
		t.Error("T0 must have no parent")
	}
	if tr.Depth(Root) != 0 {
		t.Error("T0 must have depth 0")
	}
	if tr.IsAccess(Root) {
		t.Error("T0 must not be an access")
	}
	if got := tr.Name(Root); got != "T0" {
		t.Errorf("Name(T0) = %q", got)
	}
	if tr.NumTx() != 1 {
		t.Errorf("fresh tree has %d names", tr.NumTx())
	}
}

func TestInterningIsIdempotent(t *testing.T) {
	tr, ids, objs := buildSample(t)
	if got := tr.Child(Root, "a"); got != ids["a"] {
		t.Errorf("re-interning a gave %d, want %d", got, ids["a"])
	}
	if got := tr.Access(ids["a"], "a2", objs["x"], spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)}); got != ids["a2"] {
		t.Errorf("re-interning a2 gave %d, want %d", got, ids["a2"])
	}
	n := tr.NumTx()
	tr.Child(Root, "a")
	if tr.NumTx() != n {
		t.Error("idempotent interning must not grow the tree")
	}
}

func TestInterningConflictsPanic(t *testing.T) {
	tr, ids, objs := buildSample(t)
	assertPanics(t, "access metadata change", func() {
		tr.Access(ids["a"], "a2", objs["x"], spec.Op{Kind: spec.OpWrite, Arg: spec.Int(8)})
	})
	assertPanics(t, "child of access", func() {
		tr.Child(ids["a2"], "sub")
	})
	assertPanics(t, "access with unknown object", func() {
		tr.Access(ids["a"], "zz", ObjID(99), spec.Op{Kind: spec.OpRead})
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestAncestry(t *testing.T) {
	tr, ids, _ := buildSample(t)
	cases := []struct {
		anc, desc string
		want      bool
	}{
		{"a", "r", true},
		{"a1", "r", true},
		{"r", "r", true}, // a transaction is its own ancestor
		{"a", "a", true},
		{"r", "a", false},
		{"a", "b1", false},
		{"b", "r", false},
	}
	for _, c := range cases {
		if got := tr.IsAncestor(ids[c.anc], ids[c.desc]); got != c.want {
			t.Errorf("IsAncestor(%s, %s) = %v, want %v", c.anc, c.desc, got, c.want)
		}
	}
	for name, id := range ids {
		if !tr.IsAncestor(Root, id) {
			t.Errorf("T0 must be an ancestor of %s", name)
		}
		if !tr.IsDescendant(id, Root) {
			t.Errorf("%s must be a descendant of T0", name)
		}
	}
}

func TestLCA(t *testing.T) {
	tr, ids, _ := buildSample(t)
	cases := []struct{ a, b, want string }{
		{"r", "a2", "a"},
		{"r", "b1", ""},
		{"a1", "a2", "a"},
		{"r", "r", "r"},
		{"a", "r", "a"},
	}
	for _, c := range cases {
		want := Root
		if c.want != "" {
			want = ids[c.want]
		}
		if c.a == c.want {
			want = ids[c.a]
		}
		if got := tr.LCA(ids[c.a], ids[c.b]); got != want {
			t.Errorf("LCA(%s, %s) = %s, want %s", c.a, c.b, tr.Name(got), tr.Name(want))
		}
	}
}

func TestChildAncestor(t *testing.T) {
	tr, ids, _ := buildSample(t)
	if got := tr.ChildAncestor(Root, ids["r"]); got != ids["a"] {
		t.Errorf("ChildAncestor(T0, r) = %s", tr.Name(got))
	}
	if got := tr.ChildAncestor(ids["a"], ids["r"]); got != ids["a1"] {
		t.Errorf("ChildAncestor(a, r) = %s", tr.Name(got))
	}
	assertPanics(t, "non-ancestor", func() { tr.ChildAncestor(ids["b"], ids["r"]) })
	assertPanics(t, "equal names", func() { tr.ChildAncestor(ids["r"], ids["r"]) })
}

func TestAncestors(t *testing.T) {
	tr, ids, _ := buildSample(t)
	anc := tr.Ancestors(ids["r"])
	want := []TxID{ids["r"], ids["a1"], ids["a"], Root}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors(r) = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("Ancestors(r)[%d] = %s, want %s", i, tr.Name(anc[i]), tr.Name(want[i]))
		}
	}
}

func TestAccessMetadata(t *testing.T) {
	tr, ids, objs := buildSample(t)
	if !tr.IsAccess(ids["a2"]) || tr.IsAccess(ids["a"]) {
		t.Fatal("access classification wrong")
	}
	if tr.AccessObject(ids["a2"]) != objs["x"] {
		t.Error("a2 accesses x")
	}
	if tr.AccessObject(ids["a"]) != NoObj {
		t.Error("composite must report NoObj")
	}
	op := tr.AccessOp(ids["a2"])
	if op.Kind != spec.OpWrite || op.Arg != spec.Int(7) {
		t.Errorf("AccessOp(a2) = %v", op)
	}
	assertPanics(t, "AccessOp on composite", func() { tr.AccessOp(ids["a"]) })
}

func TestObjects(t *testing.T) {
	tr, _, objs := buildSample(t)
	if tr.NumObjects() != 2 {
		t.Fatalf("NumObjects = %d", tr.NumObjects())
	}
	if tr.Object("x") != objs["x"] || tr.Object("nope") != NoObj {
		t.Error("Object lookup wrong")
	}
	if tr.ObjectLabel(objs["y"]) != "y" {
		t.Error("ObjectLabel wrong")
	}
	if tr.Spec(objs["x"]).Name() != "register" {
		t.Error("Spec wrong")
	}
	if got := tr.AddObject("x", spec.Register{}); got != objs["x"] {
		t.Error("re-adding object must return the same ID")
	}
	assertPanics(t, "respec object", func() { tr.AddObject("x", spec.Counter{}) })
}

func TestChildrenOrder(t *testing.T) {
	tr, ids, _ := buildSample(t)
	kids := tr.Children(Root)
	if len(kids) != 2 || kids[0] != ids["a"] || kids[1] != ids["b"] {
		t.Errorf("Children(T0) = %v", kids)
	}
}

func TestNameRendering(t *testing.T) {
	tr, ids, _ := buildSample(t)
	if got := tr.Name(ids["a1"]); got != "T0/a/a1" {
		t.Errorf("Name(a1) = %q", got)
	}
	if got := tr.Name(None); got != "<none>" {
		t.Errorf("Name(None) = %q", got)
	}
	// Access names embed object and operation.
	got := tr.Name(ids["b1"])
	if got != "T0/b/b1[y read]" {
		t.Errorf("Name(b1) = %q", got)
	}
}

// randomTree interns a pseudo-random tree and returns all names.
func randomTree(seed int64, n int) (*Tree, []TxID) {
	tr := NewTree()
	x := tr.AddObject("x", spec.Register{})
	rng := rand.New(rand.NewSource(seed))
	names := []TxID{Root}
	for i := 0; i < n; i++ {
		parent := names[rng.Intn(len(names))]
		if tr.IsAccess(parent) {
			continue
		}
		var id TxID
		if rng.Intn(4) == 0 {
			id = tr.Access(parent, label(i), x, spec.Op{Kind: spec.OpRead})
		} else {
			id = tr.Child(parent, label(i))
		}
		names = append(names, id)
	}
	return tr, names
}

func label(i int) string {
	return "n" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('a'+i/260%26))
}

// TestLCAProperties checks algebraic properties of LCA/ancestry on random
// trees: symmetry, idempotence, and that LCA is the deepest common
// ancestor.
func TestLCAProperties(t *testing.T) {
	f := func(seed int64) bool {
		tr, names := randomTree(seed, 60)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for k := 0; k < 200; k++ {
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			l := tr.LCA(a, b)
			if l != tr.LCA(b, a) {
				return false
			}
			if !tr.IsAncestor(l, a) || !tr.IsAncestor(l, b) {
				return false
			}
			// No child of l that is an ancestor of both.
			for _, c := range tr.Children(l) {
				if tr.IsAncestor(c, a) && tr.IsAncestor(c, b) {
					return false
				}
			}
			if tr.LCA(a, a) != a {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAncestryViaAncestors cross-checks IsAncestor against the explicit
// ancestor list.
func TestAncestryViaAncestors(t *testing.T) {
	f := func(seed int64) bool {
		tr, names := randomTree(seed, 40)
		rng := rand.New(rand.NewSource(seed ^ 0x1234))
		for k := 0; k < 100; k++ {
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			inList := false
			for _, u := range tr.Ancestors(b) {
				if u == a {
					inList = true
					break
				}
			}
			if tr.IsAncestor(a, b) != inList {
				return false
			}
			if tr.IsOrdered(a, b) != (tr.IsAncestor(a, b) || tr.IsAncestor(b, a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDefineAgreesWithInterning: defining a generated tree's names in order
// gives the tree interning them gives — the same IDs, Name, Parent,
// Children and access metadata for every name — and a lookup after the
// definitions resolves each defined name rather than adding one.
func TestDefineAgreesWithInterning(t *testing.T) {
	f := func(seed int64) bool {
		interned, names := randomTree(seed, 80)
		defined := NewTree()
		defined.AddObject("x", spec.Register{})
		for id := TxID(1); int(id) < interned.NumTx(); id++ {
			x, op := NoObj, spec.Op{}
			if interned.IsAccess(id) {
				x, op = interned.AccessObject(id), interned.AccessOp(id)
			}
			if got := defined.Define(interned.Parent(id), interned.Label(id), x, op); got != id {
				t.Errorf("seed %d: Define gave %d, want %d", seed, got, id)
				return false
			}
		}
		if defined.NumTx() != interned.NumTx() || defined.Validate() != nil {
			return false
		}
		for _, id := range names {
			if defined.Name(id) != interned.Name(id) || defined.Parent(id) != interned.Parent(id) ||
				!slices.Equal(defined.Children(id), interned.Children(id)) ||
				defined.AccessObject(id) != interned.AccessObject(id) {
				t.Errorf("seed %d: %s differs: %s", seed, interned.Name(id), defined.Name(id))
				return false
			}
			if interned.IsAccess(id) && defined.AccessOp(id) != interned.AccessOp(id) {
				return false
			}
			if id == Root {
				continue
			}
			var again TxID
			if interned.IsAccess(id) {
				again = defined.Access(defined.Parent(id), defined.Label(id), defined.AccessObject(id), defined.AccessOp(id))
			} else {
				again = defined.Child(defined.Parent(id), defined.Label(id))
			}
			if again != id {
				t.Errorf("seed %d: looking %s up after Define gave %d", seed, interned.Name(id), again)
				return false
			}
		}
		return defined.NumTx() == interned.NumTx()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDefineCatchesUpTheIndex: names defined after a lookup built the label
// index are found by the next lookup too.
func TestDefineCatchesUpTheIndex(t *testing.T) {
	tr := NewTree()
	a := tr.Child(Root, "a") // builds the index
	b := tr.Define(Root, "b", NoObj, spec.Op{})
	ab := tr.Define(a, "b", NoObj, spec.Op{})
	if got := tr.Child(Root, "b"); got != b {
		t.Errorf("Child(T0, b) = %d, want the defined %d", got, b)
	}
	if got := tr.Child(a, "b"); got != ab {
		t.Errorf("Child(a, b) = %d, want the defined %d", got, ab)
	}
	if tr.NumTx() != 4 {
		t.Errorf("lookups of defined names grew the tree to %d names", tr.NumTx())
	}
}

func TestDefinePanics(t *testing.T) {
	tr, ids, _ := buildSample(t)
	assertPanics(t, "child of access", func() { tr.Define(ids["a2"], "sub", NoObj, spec.Op{}) })
	assertPanics(t, "access to unknown object", func() {
		tr.Define(ids["a"], "zz", ObjID(99), spec.Op{Kind: spec.OpRead})
	})
	assertPanics(t, "unknown parent", func() { tr.Define(TxID(tr.NumTx()), "zz", NoObj, spec.Op{}) })
}

// TestDefineAllocs: defining N names into a tree reserved with Grow costs no
// allocation — no label map, no children list, no string per name — for
// composites and accesses alike, string arguments included once the side
// table has room.
func TestDefineAllocs(t *testing.T) {
	const n = 1000
	tr := NewTree()
	x := tr.AddObject("x", spec.Register{})
	labels := make([]string, n+2)
	text := 0
	for i := range labels {
		labels[i] = label(i)
		text += len(labels[i])
	}
	tr.Grow(n+2, text) // AllocsPerRun calls once more to warm up
	top := tr.Define(Root, labels[n+1], NoObj, spec.Op{})
	tr.strs = slices.Grow(tr.strs, n)
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		switch i % 3 {
		case 0:
			tr.Define(top, labels[i], NoObj, spec.Op{})
		case 1:
			tr.Define(top, labels[i], x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))})
		default:
			tr.Define(top, labels[i], x, spec.Op{Kind: spec.OpWrite, Arg: spec.Str(labels[i])})
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Define allocates %.2f times per name, want 0", allocs)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeKeepsNoObjectPerName: once the caller's label strings are
// garbage, a tree of N names holds a handful of heap objects, not one per
// name: the labels live in the text arena and the records hold no pointer.
func TestTreeKeepsNoObjectPerName(t *testing.T) {
	const n = 50000
	objects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := objects()
	tr := NewTree()
	x := tr.AddObject("x", spec.Register{})
	top := tr.Define(Root, "top", NoObj, spec.Op{})
	for i := 0; i < n; i++ {
		l := strconv.Itoa(i) // a fresh string, dropped once defined
		if i%2 == 0 {
			tr.Define(top, l, NoObj, spec.Op{})
		} else {
			tr.Define(top, l, x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))})
		}
	}
	after := objects()
	runtime.KeepAlive(tr)
	if after > before && after-before > n/100 {
		t.Fatalf("a tree of %d names keeps %d more heap objects, want at most %d", n, after-before, n/100)
	}
	if got := tr.Label(TxID(tr.NumTx() - 1)); got != strconv.Itoa(n-1) {
		t.Fatalf("last label %q, want %q", got, strconv.Itoa(n-1))
	}
}

// TestNodeIsPointerFree: the tree keeps a node per name for as long as it
// lives, so a node must stay within 32 bytes and hold nothing the garbage
// collector has to scan (the records of internal/graph and internal/core
// are held to the same rule).
func TestNodeIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 32 {
		t.Errorf("node is %d bytes, want at most 32", n)
	}
	typ := reflect.TypeOf(node{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Uint8:
		default:
			t.Errorf("%s.%s is a %s", typ, f.Name, f.Type.Kind())
		}
	}
}

// TestLabelSharesStableText holds Label's use of unsafe to its contract: a
// label handed out before the text regrows — by Define or by Grow — reads
// the same afterwards, its bytes are the text's own (no copy), and no
// later Define writes into them.
func TestLabelSharesStableText(t *testing.T) {
	tr := NewTree()
	x := tr.AddObject("x", spec.Register{})
	var ids []TxID
	var got []string
	for i := 0; i < 2000; i++ {
		id := tr.Define(Root, label(i)+strconv.Itoa(i), NoObj, spec.Op{})
		if i%3 == 0 {
			id = tr.Define(id, "acc"+strconv.Itoa(i), x, spec.Op{Kind: spec.OpWrite, Arg: spec.Str("v" + strconv.Itoa(i))})
		}
		ids = append(ids, id)
		got = append(got, tr.Label(id))
		if i == 1000 {
			tr.Grow(1, 1<<16) // move the text at once
		}
	}
	for i, id := range ids {
		want := label(i) + strconv.Itoa(i)
		if i%3 == 0 {
			want = "acc" + strconv.Itoa(i)
			if op := tr.AccessOp(id); op.Arg != spec.Str("v"+strconv.Itoa(i)) {
				t.Fatalf("name %d: op %v", i, op)
			}
		}
		if got[i] != want || tr.Label(id) != want {
			t.Fatalf("name %d: label read %q then %q, want %q", i, got[i], tr.Label(id), want)
		}
	}
	last := ids[len(ids)-1]
	n := &tr.nodes[last]
	if l := tr.Label(last); unsafe.StringData(l) != &tr.text[n.label] {
		t.Fatal("Label copied the text")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Label(last) }); allocs != 0 {
		t.Fatalf("Label allocates %.2f times, want 0", allocs)
	}
	if tr.Label(Root) != "T0" {
		t.Fatalf("root label %q", tr.Label(Root))
	}
	if id := tr.Define(Root, "", NoObj, spec.Op{}); tr.Label(id) != "" {
		t.Fatalf("empty label reads %q", tr.Label(id))
	}
}

// TestValidateRejectsDuplicateSiblings: Define takes a label's uniqueness on
// trust, so Validate must catch two siblings sharing one — composite or
// access — while the same label under different parents is fine.
func TestValidateRejectsDuplicateSiblings(t *testing.T) {
	read := spec.Op{Kind: spec.OpRead}
	for _, c := range []struct {
		name  string
		build func(tr *Tree, x ObjID)
		ok    bool
	}{
		{"distinct labels", func(tr *Tree, x ObjID) {
			tr.Define(Root, "a", NoObj, spec.Op{})
			tr.Define(Root, "b", NoObj, spec.Op{})
		}, true},
		{"one label under two parents", func(tr *Tree, x ObjID) {
			a := tr.Define(Root, "a", NoObj, spec.Op{})
			tr.Define(a, "a", NoObj, spec.Op{})
		}, true},
		{"two composite siblings", func(tr *Tree, x ObjID) {
			tr.Define(Root, "a", NoObj, spec.Op{})
			tr.Define(Root, "a", NoObj, spec.Op{})
		}, false},
		{"an access and a composite", func(tr *Tree, x ObjID) {
			a := tr.Define(Root, "a", NoObj, spec.Op{})
			tr.Define(a, "r", x, read)
			tr.Define(a, "r", NoObj, spec.Op{})
		}, false},
		{"two accesses, different ops", func(tr *Tree, x ObjID) {
			a := tr.Define(Root, "a", NoObj, spec.Op{})
			tr.Define(a, "w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(1)})
			tr.Define(a, "w", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(2)})
		}, false},
	} {
		tr := NewTree()
		c.build(tr, tr.AddObject("x", spec.Register{}))
		if err := tr.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
