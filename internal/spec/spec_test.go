package spec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{OK, "OK"},
		{Int(42), "42"},
		{Int(-3), "-3"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Str("hi"), `"hi"`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueComparability(t *testing.T) {
	if Int(1) == Int(2) {
		t.Error("distinct ints compare equal")
	}
	if Int(1) != Int(1) {
		t.Error("equal ints compare unequal")
	}
	if Bool(false) == Nil {
		t.Error("false must differ from nil")
	}
	if Bool(true) == Int(1) {
		t.Error("bool true must differ from int 1")
	}
}

func TestOpString(t *testing.T) {
	if got := (Op{Kind: OpRead}).String(); got != "read" {
		t.Errorf("read op renders %q", got)
	}
	if got := (Op{Kind: OpWrite, Arg: Int(5)}).String(); got != "write(5)" {
		t.Errorf("write op renders %q", got)
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, sp := range All() {
		got := ByName(sp.Name())
		if got == nil || got.Name() != sp.Name() {
			t.Errorf("ByName(%q) failed", sp.Name())
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName must return nil for unknown specs")
	}
	if len(All()) != 6 {
		t.Errorf("expected 6 built-in specs, got %d", len(All()))
	}
}

// --- Register semantics -------------------------------------------------

func TestRegisterSemantics(t *testing.T) {
	sp := Register{}
	st := sp.Init()
	var v Value
	st, v = sp.Apply(st, Op{Kind: OpRead})
	if v != Int(0) {
		t.Errorf("initial read = %s", v)
	}
	st, v = sp.Apply(st, Op{Kind: OpWrite, Arg: Int(9)})
	if v != OK {
		t.Errorf("write returned %s", v)
	}
	_, v = sp.Apply(st, Op{Kind: OpRead})
	if v != Int(9) {
		t.Errorf("read after write = %s", v)
	}
}

func TestRegisterCustomInit(t *testing.T) {
	sp := Register{InitVal: Int(5)}
	_, v := sp.Apply(sp.Init(), Op{Kind: OpRead})
	if v != Int(5) {
		t.Errorf("custom initial read = %s", v)
	}
}

func TestRegisterConflicts(t *testing.T) {
	sp := Register{}
	r := OpVal{Op: Op{Kind: OpRead}, Val: Int(0)}
	w := OpVal{Op: Op{Kind: OpWrite, Arg: Int(1)}, Val: OK}
	if sp.Conflicts(r, r) {
		t.Error("read/read must not conflict")
	}
	if !sp.Conflicts(r, w) || !sp.Conflicts(w, r) || !sp.Conflicts(w, w) {
		t.Error("any pair involving a write must conflict")
	}
}

// --- Counter semantics --------------------------------------------------

func TestCounterSemantics(t *testing.T) {
	sp := Counter{}
	st := sp.Init()
	st, _ = sp.Apply(st, Op{Kind: OpIncrement, Arg: Int(5)})
	st, _ = sp.Apply(st, Op{Kind: OpDecrement, Arg: Int(2)})
	_, v := sp.Apply(st, Op{Kind: OpGet})
	if v != Int(3) {
		t.Errorf("counter = %s, want 3", v)
	}
}

func TestCounterConflicts(t *testing.T) {
	sp := Counter{}
	inc := OpVal{Op: Op{Kind: OpIncrement, Arg: Int(1)}, Val: OK}
	dec := OpVal{Op: Op{Kind: OpDecrement, Arg: Int(2)}, Val: OK}
	get := OpVal{Op: Op{Kind: OpGet}, Val: Int(0)}
	if sp.Conflicts(inc, dec) || sp.Conflicts(inc, inc) {
		t.Error("blind counter updates must commute")
	}
	if !sp.Conflicts(inc, get) || !sp.Conflicts(get, dec) {
		t.Error("get must conflict with updates")
	}
	if sp.Conflicts(get, get) {
		t.Error("two gets must commute")
	}
}

// --- Account semantics --------------------------------------------------

func TestAccountSemantics(t *testing.T) {
	sp := Account{}
	st := sp.Init()
	st, v := sp.Apply(st, Op{Kind: OpWithdraw, Arg: Int(1)})
	if v != Bool(false) {
		t.Errorf("withdraw from empty account = %s", v)
	}
	st, v = sp.Apply(st, Op{Kind: OpDeposit, Arg: Int(10)})
	if v != OK {
		t.Errorf("deposit = %s", v)
	}
	st, v = sp.Apply(st, Op{Kind: OpWithdraw, Arg: Int(4)})
	if v != Bool(true) {
		t.Errorf("withdraw 4 of 10 = %s", v)
	}
	_, v = sp.Apply(st, Op{Kind: OpBalance})
	if v != Int(6) {
		t.Errorf("balance = %s, want 6", v)
	}
}

func TestAccountConflictTable(t *testing.T) {
	sp := Account{}
	dep := OpVal{Op: Op{Kind: OpDeposit, Arg: Int(3)}, Val: OK}
	wOK := OpVal{Op: Op{Kind: OpWithdraw, Arg: Int(2)}, Val: Bool(true)}
	wNo := OpVal{Op: Op{Kind: OpWithdraw, Arg: Int(9)}, Val: Bool(false)}
	bal := OpVal{Op: Op{Kind: OpBalance}, Val: Int(4)}

	commutes := [][2]OpVal{{dep, dep}, {wOK, wOK}, {wNo, wNo}, {wNo, bal}, {bal, bal}}
	conflicts := [][2]OpVal{{dep, wOK}, {dep, wNo}, {dep, bal}, {wOK, wNo}, {wOK, bal}}
	for _, p := range commutes {
		if sp.Conflicts(p[0], p[1]) || sp.Conflicts(p[1], p[0]) {
			t.Errorf("%s and %s should commute", p[0], p[1])
		}
	}
	for _, p := range conflicts {
		if !sp.Conflicts(p[0], p[1]) || !sp.Conflicts(p[1], p[0]) {
			t.Errorf("%s and %s should conflict", p[0], p[1])
		}
	}
}

// TestAccountConflictWitnesses exhibits, for each conflicting pair, a
// concrete context in which backward commutativity genuinely fails —
// showing the table is not merely over-conservative on these entries.
func TestAccountConflictWitnesses(t *testing.T) {
	sp := Account{}
	dep5 := Op{Kind: OpDeposit, Arg: Int(5)}
	w5 := Op{Kind: OpWithdraw, Arg: Int(5)}
	balOp := Op{Kind: OpBalance}

	cases := []struct {
		name string
		xi   []Op
		a, b OpVal
	}{
		{"deposit/withdraw-true on empty", nil,
			OpVal{Op: dep5, Val: OK}, OpVal{Op: w5, Val: Bool(true)}},
		{"deposit/balance", nil,
			OpVal{Op: dep5, Val: OK}, OpVal{Op: balOp, Val: Int(5)}},
		{"withdraw-true/balance", []Op{{Kind: OpDeposit, Arg: Int(5)}},
			OpVal{Op: w5, Val: Bool(true)}, OpVal{Op: balOp, Val: Int(0)}},
		{"withdraw-true/withdraw-false", []Op{{Kind: OpDeposit, Arg: Int(7)}},
			OpVal{Op: w5, Val: Bool(true)}, OpVal{Op: Op{Kind: OpWithdraw, Arg: Int(3)}, Val: Bool(false)}},
	}
	for _, c := range cases {
		if got := CommuteBackwardIn(sp, c.xi, c.a, c.b); got != Violates {
			t.Errorf("%s: verdict %v, want Violates", c.name, got)
		}
	}
}

// --- Set semantics ------------------------------------------------------

func TestSetSemantics(t *testing.T) {
	sp := IntSet{}
	st := sp.Init()
	st, _ = sp.Apply(st, Op{Kind: OpInsert, Arg: Int(3)})
	st, _ = sp.Apply(st, Op{Kind: OpInsert, Arg: Int(1)})
	st, _ = sp.Apply(st, Op{Kind: OpInsert, Arg: Int(3)}) // duplicate
	_, v := sp.Apply(st, Op{Kind: OpSize})
	if v != Int(2) {
		t.Errorf("size = %s, want 2", v)
	}
	_, v = sp.Apply(st, Op{Kind: OpMember, Arg: Int(1)})
	if v != Bool(true) {
		t.Error("member(1) should be true")
	}
	st, _ = sp.Apply(st, Op{Kind: OpRemove, Arg: Int(1)})
	_, v = sp.Apply(st, Op{Kind: OpMember, Arg: Int(1)})
	if v != Bool(false) {
		t.Error("member(1) after remove should be false")
	}
	if sp.Encode(st) != "{3}" {
		t.Errorf("encode = %s", sp.Encode(st))
	}
}

func TestSetConflicts(t *testing.T) {
	sp := IntSet{}
	ins3 := OpVal{Op: Op{Kind: OpInsert, Arg: Int(3)}, Val: OK}
	ins4 := OpVal{Op: Op{Kind: OpInsert, Arg: Int(4)}, Val: OK}
	rem3 := OpVal{Op: Op{Kind: OpRemove, Arg: Int(3)}, Val: OK}
	mem3 := OpVal{Op: Op{Kind: OpMember, Arg: Int(3)}, Val: Bool(true)}
	size := OpVal{Op: Op{Kind: OpSize}, Val: Int(0)}

	if sp.Conflicts(ins3, ins4) || sp.Conflicts(ins3, ins3) {
		t.Error("inserts on distinct/same elements commute")
	}
	if !sp.Conflicts(ins3, rem3) {
		t.Error("insert/remove of the same element conflict")
	}
	if !sp.Conflicts(ins3, mem3) || sp.Conflicts(ins4, mem3) {
		t.Error("member conflicts exactly with same-element updates")
	}
	if !sp.Conflicts(size, ins3) || sp.Conflicts(size, mem3) {
		t.Error("size conflicts with updates only")
	}
}

// --- AppendLog semantics ------------------------------------------------

func TestAppendLogSemantics(t *testing.T) {
	sp := AppendLog{}
	st := sp.Init()
	st, _ = sp.Apply(st, Op{Kind: OpAppend, Arg: Int(1)})
	st, _ = sp.Apply(st, Op{Kind: OpAppend, Arg: Int(2)})
	_, v := sp.Apply(st, Op{Kind: OpLen})
	if v != Int(2) {
		t.Errorf("len = %s", v)
	}
	if sp.Encode(st) != "[1,2]" {
		t.Errorf("encode = %s", sp.Encode(st))
	}
}

func TestAppendLogConflicts(t *testing.T) {
	sp := AppendLog{}
	a1 := OpVal{Op: Op{Kind: OpAppend, Arg: Int(1)}, Val: OK}
	a2 := OpVal{Op: Op{Kind: OpAppend, Arg: Int(2)}, Val: OK}
	ln := OpVal{Op: Op{Kind: OpLen}, Val: Int(0)}
	if sp.Conflicts(a1, a1) {
		t.Error("appends of equal values commute")
	}
	if !sp.Conflicts(a1, a2) {
		t.Error("appends of distinct values conflict")
	}
	if !sp.Conflicts(a1, ln) || sp.Conflicts(ln, ln) {
		t.Error("len conflicts with append only")
	}
}

// --- Queue semantics ----------------------------------------------------

func TestQueueSemantics(t *testing.T) {
	sp := Queue{}
	st := sp.Init()
	_, v := sp.Apply(st, Op{Kind: OpDeq})
	if v != Nil {
		t.Errorf("deq on empty = %s", v)
	}
	st, _ = sp.Apply(st, Op{Kind: OpEnq, Arg: Int(1)})
	st, _ = sp.Apply(st, Op{Kind: OpEnq, Arg: Int(2)})
	st, v = sp.Apply(st, Op{Kind: OpDeq})
	if v != Int(1) {
		t.Errorf("FIFO violated: deq = %s", v)
	}
	st, v = sp.Apply(st, Op{Kind: OpDeq})
	if v != Int(2) {
		t.Errorf("FIFO violated: deq = %s", v)
	}
	if sp.Encode(st) != "<>" {
		t.Errorf("encode = %s", sp.Encode(st))
	}
}

func TestQueueConflicts(t *testing.T) {
	sp := Queue{}
	e1 := OpVal{Op: Op{Kind: OpEnq, Arg: Int(1)}, Val: OK}
	e2 := OpVal{Op: Op{Kind: OpEnq, Arg: Int(2)}, Val: OK}
	dNil := OpVal{Op: Op{Kind: OpDeq}, Val: Nil}
	d1 := OpVal{Op: Op{Kind: OpDeq}, Val: Int(1)}
	if sp.Conflicts(e1, e1) {
		t.Error("equal enqueues commute")
	}
	if !sp.Conflicts(e1, e2) || !sp.Conflicts(e1, d1) || !sp.Conflicts(d1, d1) {
		t.Error("distinct enqueues and dequeues conflict")
	}
	if sp.Conflicts(dNil, dNil) {
		t.Error("two empty dequeues commute")
	}
}

// --- Cross-cutting properties -------------------------------------------

// TestConflictSymmetry: every Conflicts relation must be symmetric (the
// paper's backward commutativity is symmetric by definition).
func TestConflictSymmetry(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for k := 0; k < 500; k++ {
				xi := randomContext(sp, rng, 6)
				a := LegalOpVal(sp, xi, sp.RandOp(rng))
				b := LegalOpVal(sp, xi, sp.RandOp(rng))
				if sp.Conflicts(a, b) != sp.Conflicts(b, a) {
					t.Fatalf("asymmetric conflict: %s vs %s", a, b)
				}
			}
		})
	}
}

// TestConflictTablesConservative is the soundness property the §6
// construction needs: whenever Conflicts reports that two operations
// commute, swapping them in any context where both are legal must yield a
// behavior ending in an equivalent state.
func TestConflictTablesConservative(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 60; k++ {
					xi := randomContext(sp, rng, rng.Intn(8))
					st, _ := Replay(sp, xi)
					// Draw a and b legal in sequence after ξ, so the
					// backward-commutativity premise holds.
					opA := sp.RandOp(rng)
					s1, va := sp.Apply(st, opA)
					a := OpVal{Op: opA, Val: va}
					opB := sp.RandOp(rng)
					_, vb := sp.Apply(s1, opB)
					b := OpVal{Op: opB, Val: vb}
					if !sp.Conflicts(a, b) {
						if CommuteBackwardIn(sp, xi, a, b) == Violates {
							t.Logf("non-conservative: %s, %s in context %v", a, b, xi)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyClassification: ReadOnly operations must not change the
// encoded state.
func TestReadOnlyClassification(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for k := 0; k < 300; k++ {
				xi := randomContext(sp, rng, rng.Intn(6))
				st, _ := Replay(sp, xi)
				op := sp.RandOp(rng)
				if !sp.ReadOnly(op) {
					continue
				}
				st2, _ := sp.Apply(st, op)
				if sp.Encode(st) != sp.Encode(st2) {
					t.Fatalf("read-only op %s changed state %s -> %s", op, sp.Encode(st), sp.Encode(st2))
				}
			}
		})
	}
}

// TestReadOnlyOpsCommute: two read-only operations never conflict, in
// either order, and no read-only operation is a wall. These are the two
// properties the serialization-graph engine relies on when it compares a
// read-only access only with the other operations of its window
// (core.conflictFrontier). Every read-only kind of every built-in type is
// paired with every boundary argument and return value.
func TestReadOnlyOpsCommute(t *testing.T) {
	boundary := []Value{Nil, OK, Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Bool(false), Bool(true), Str(""), Str("x")}
	readOnly := map[string][]OpKind{
		"register":  {OpRead},
		"counter":   {OpGet},
		"account":   {OpBalance},
		"set":       {OpMember, OpSize},
		"appendlog": {OpLen},
		"queue":     nil,
	}
	for _, sp := range All() {
		want, ok := readOnly[sp.Name()]
		if !ok {
			t.Errorf("%s: built-in type missing from the table", sp.Name())
		}
		var ro []OpVal
		var kinds []OpKind
		for k := OpRead; k <= OpDeq; k++ {
			for i, arg := range boundary {
				op := Op{Kind: k, Arg: arg}
				if !sp.ReadOnly(op) {
					continue
				}
				if i == 0 {
					kinds = append(kinds, k)
				}
				for _, v := range boundary {
					ro = append(ro, OpVal{Op: op, Val: v})
				}
			}
		}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("%s: read-only kinds %v, want %v", sp.Name(), kinds, want)
		}
		for _, a := range ro {
			if sp.ConflictsWithAll(a) {
				t.Errorf("%s: read-only %s is a wall", sp.Name(), a)
			}
			for _, b := range ro {
				if sp.Conflicts(a, b) {
					t.Errorf("%s: read-only %s conflicts with read-only %s", sp.Name(), a, b)
				}
			}
		}
	}
}

// TestApplyIsPure: Apply must not mutate its input state.
func TestApplyIsPure(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for k := 0; k < 200; k++ {
				xi := randomContext(sp, rng, rng.Intn(6))
				st, _ := Replay(sp, xi)
				before := sp.Encode(st)
				sp.Apply(st, sp.RandOp(rng))
				if sp.Encode(st) != before {
					t.Fatalf("Apply mutated its input state")
				}
			}
		})
	}
}

// TestIsBehavior checks the replay-based legality test.
func TestIsBehavior(t *testing.T) {
	sp := Register{}
	good := []OpVal{
		{Op: Op{Kind: OpWrite, Arg: Int(3)}, Val: OK},
		{Op: Op{Kind: OpRead}, Val: Int(3)},
	}
	if ok, _ := IsBehavior(sp, good); !ok {
		t.Error("legal sequence rejected")
	}
	bad := []OpVal{
		{Op: Op{Kind: OpWrite, Arg: Int(3)}, Val: OK},
		{Op: Op{Kind: OpRead}, Val: Int(4)},
	}
	ok, i := IsBehavior(sp, bad)
	if ok || i != 1 {
		t.Errorf("IsBehavior(bad) = %v, %d", ok, i)
	}
}

// TestCommuteVacuous: when the premise sequence is not a behavior, the
// verdict is Vacuous.
func TestCommuteVacuous(t *testing.T) {
	sp := Register{}
	a := OpVal{Op: Op{Kind: OpRead}, Val: Int(99)} // wrong value in empty context
	b := OpVal{Op: Op{Kind: OpWrite, Arg: Int(1)}, Val: OK}
	if got := CommuteBackwardIn(sp, nil, a, b); got != Vacuous {
		t.Errorf("verdict = %v, want Vacuous", got)
	}
}

// randomContext draws a random legal operation sequence of length n.
func randomContext(sp Spec, rng *rand.Rand, n int) []Op {
	xi := make([]Op, n)
	for i := range xi {
		xi[i] = sp.RandOp(rng)
	}
	return xi
}

// TestConflictWitnessesAcrossTypes exhibits, for key conflicting pairs of
// every non-register type, a concrete context where backward commutativity
// genuinely fails — the tables are not merely over-conservative there.
func TestConflictWitnessesAcrossTypes(t *testing.T) {
	type wit struct {
		name string
		sp   Spec
		xi   []Op
		a, b OpVal
	}
	cases := []wit{
		{"counter inc/get", Counter{}, nil,
			OpVal{Op: Op{Kind: OpIncrement, Arg: Int(2)}, Val: OK},
			OpVal{Op: Op{Kind: OpGet}, Val: Int(2)}},
		{"set insert/remove same element", IntSet{}, []Op{{Kind: OpInsert, Arg: Int(1)}},
			OpVal{Op: Op{Kind: OpRemove, Arg: Int(1)}, Val: OK},
			OpVal{Op: Op{Kind: OpInsert, Arg: Int(1)}, Val: OK}},
		{"set insert/member same element", IntSet{}, nil,
			OpVal{Op: Op{Kind: OpInsert, Arg: Int(3)}, Val: OK},
			OpVal{Op: Op{Kind: OpMember, Arg: Int(3)}, Val: Bool(true)}},
		{"set insert/size", IntSet{}, nil,
			OpVal{Op: Op{Kind: OpInsert, Arg: Int(3)}, Val: OK},
			OpVal{Op: Op{Kind: OpSize}, Val: Int(1)}},
		{"appendlog append/len", AppendLog{}, nil,
			OpVal{Op: Op{Kind: OpAppend, Arg: Int(1)}, Val: OK},
			OpVal{Op: Op{Kind: OpLen}, Val: Int(1)}},
		{"queue enq/deq", Queue{}, nil,
			OpVal{Op: Op{Kind: OpEnq, Arg: Int(1)}, Val: OK},
			OpVal{Op: Op{Kind: OpDeq}, Val: Int(1)}},
		{"queue deq/deq distinct heads", Queue{}, []Op{{Kind: OpEnq, Arg: Int(1)}, {Kind: OpEnq, Arg: Int(2)}},
			OpVal{Op: Op{Kind: OpDeq}, Val: Int(1)},
			OpVal{Op: Op{Kind: OpDeq}, Val: Int(2)}},
	}
	for _, c := range cases {
		if !c.sp.Conflicts(c.a, c.b) {
			t.Errorf("%s: table says commute", c.name)
			continue
		}
		if got := CommuteBackwardIn(c.sp, c.xi, c.a, c.b); got != Violates {
			t.Errorf("%s: verdict %v, want Violates", c.name, got)
		}
	}
}

// TestOpKindStringsUnique: every op kind renders a distinct mnemonic (the
// trace codec relies on this for round-trips).
func TestOpKindStringsUnique(t *testing.T) {
	seen := map[string]OpKind{}
	for k := OpKind(0); k <= OpDeq; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d both render %q", prev, k, s)
		}
		seen[s] = k
	}
}
