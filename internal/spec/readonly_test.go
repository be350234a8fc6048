package spec

import (
	"testing"
	"unsafe"
)

// sameState reports whether a and b are the same interface value word for
// word: the same dynamic type and the same data pointer, not merely equal
// contents.
func sameState(a, b State) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

// TestReadOnlyApplyReturnsItsState: a read-only op hands back the State it
// was given, not a fresh box of the same contents, so answering it allocates
// nothing. A snapshot read answers its op with Apply on a published state,
// once per read. The table covers every read-only kind of every built-in
// type; its states hold values above 255, which a re-boxed int64 would not
// share with the runtime's static small-integer table.
func TestReadOnlyApplyReturnsItsState(t *testing.T) {
	cases := []struct {
		sp    Spec
		setup []Op
		reads []Op
	}{
		{Register{}, []Op{{OpWrite, Int(1000)}}, []Op{{OpRead, Nil}}},
		{Counter{}, []Op{{OpIncrement, Int(1000)}}, []Op{{OpGet, Nil}}},
		{Account{}, []Op{{OpDeposit, Int(1000)}}, []Op{{OpBalance, Nil}}},
		{IntSet{}, []Op{{OpInsert, Int(300)}, {OpInsert, Int(5)}},
			[]Op{{OpMember, Int(300)}, {OpMember, Int(7)}, {OpSize, Nil}}},
		{AppendLog{}, []Op{{OpAppend, Int(300)}, {OpAppend, Int(301)}}, []Op{{OpLen, Nil}}},
	}
	covered := map[string]map[OpKind]bool{}
	for _, c := range cases {
		st, _ := Replay(c.sp, c.setup)
		for _, op := range c.reads {
			if !c.sp.ReadOnly(op) {
				t.Fatalf("%s: %s is not read-only", c.sp.Name(), op)
			}
			if covered[c.sp.Name()] == nil {
				covered[c.sp.Name()] = map[OpKind]bool{}
			}
			covered[c.sp.Name()][op.Kind] = true
			var got State
			if allocs := testing.AllocsPerRun(100, func() { got, _ = c.sp.Apply(st, op) }); allocs != 0 {
				t.Errorf("%s %s: %.0f allocations, want 0", c.sp.Name(), op, allocs)
			}
			if !sameState(got, st) {
				t.Errorf("%s %s: returned a new State, want the one it was given", c.sp.Name(), op)
			}
		}
	}
	for _, sp := range All() {
		for k := OpRead; k <= OpDeq; k++ {
			if sp.ReadOnly(Op{Kind: k}) && !covered[sp.Name()][k] {
				t.Errorf("%s: read-only kind %s missing from the table", sp.Name(), k)
			}
		}
	}
}
