package spec

import (
	"math/rand"
	"testing"
)

// TestFixedAnswer holds the table to the types it speaks for. For every
// built-in type and every op kind the type supports (the kinds its RandOp
// draws), over the states reached by 500 random operation sequences:
//
//   - a kind in the table answers exactly the table's value, in every state
//     and for every argument drawn — so a client that hands the value out
//     before the server answers never promises what the type does not do;
//   - a kind not in the table answers two different values for one
//     operation in two reachable states — so the table is maximal, not
//     merely safe: no op left out of it could have been promised.
func TestFixedAnswer(t *testing.T) {
	inTable := map[OpKind]bool{}
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			// The ops of each kind the type draws, de-duplicated: the
			// arguments come from the type's own small domain.
			ops := map[OpKind][]Op{}
			seen := map[Op]bool{}
			for i := 0; i < 2000; i++ {
				if op := sp.RandOp(rng); !seen[op] {
					seen[op] = true
					ops[op.Kind] = append(ops[op.Kind], op)
				}
			}
			// first[op] is the answer op gave in the first state it was
			// tried in; varies[k] says some op of kind k answered otherwise
			// in a later one.
			first := map[Op]Value{}
			varies := map[OpKind]bool{}
			for seq := 0; seq < 500; seq++ {
				st := sp.Init()
				for step, n := 0, rng.Intn(12); ; step++ {
					for k, kops := range ops {
						want, fixed := FixedAnswer(k)
						for _, op := range kops {
							_, v := sp.Apply(st, op)
							if fixed && v != want {
								t.Fatalf("%s answered %s in state %s, but FixedAnswer(%s) = %s", op, v, sp.Encode(st), k, want)
							}
							if v0, ok := first[op]; !ok {
								first[op] = v
							} else if v0 != v {
								varies[k] = true
							}
						}
					}
					if step == n {
						break
					}
					st, _ = sp.Apply(st, sp.RandOp(rng))
				}
			}
			for k := range ops {
				_, fixed := FixedAnswer(k)
				if fixed {
					inTable[k] = true
				} else if !varies[k] {
					t.Errorf("%s is not in the table, yet it gave one answer in every state reached", k)
				}
			}
		})
	}
	// Every kind in the table belongs to some built-in type, and kinds no
	// type defines have no fixed answer.
	for k := OpInvalid; k <= OpDeq; k++ {
		if _, fixed := FixedAnswer(k); fixed != inTable[k] {
			t.Errorf("FixedAnswer(%s) reports %v, but the types say %v", k, fixed, inTable[k])
		}
	}
	if _, fixed := FixedAnswer(OpDeq + 1); fixed {
		t.Error("an op kind past the enumeration has a fixed answer")
	}
}

// TestReadOnlyKind holds the kind-level table to every built-in type's own
// ReadOnly, for every op the type draws; kinds no type defines are not
// read-only.
func TestReadOnlyKind(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defined := map[OpKind]bool{}
	for _, sp := range All() {
		for i := 0; i < 500; i++ {
			op := sp.RandOp(rng)
			defined[op.Kind] = true
			if ReadOnlyKind(op.Kind) != sp.ReadOnly(op) {
				t.Errorf("%s: ReadOnlyKind(%s) = %v, but ReadOnly(%s) = %v", sp.Name(), op.Kind, ReadOnlyKind(op.Kind), op, sp.ReadOnly(op))
			}
		}
	}
	for k := OpInvalid; k <= OpDeq+1; k++ {
		if !defined[k] && ReadOnlyKind(k) {
			t.Errorf("ReadOnlyKind(%s) is true, but no type defines the kind", k)
		}
	}
}

// TestAnswerAfter holds the table to the types it speaks for, as
// TestFixedAnswer does. For every built-in type, every update u and every
// read-only op r the type draws, over the states reached by 300 random
// operation sequences:
//
//   - a pair in the table answers the table's value after u, in every
//     state — so a client that answers a read after its own update never
//     promises what the type does not do;
//   - a pair not in the table answers two different values after u in two
//     reachable states — so no pair left out could have been promised.
func TestAnswerAfter(t *testing.T) {
	inTable := 0
	for _, sp := range All() {
		rng := rand.New(rand.NewSource(1))
		var updates, readOps []Op
		seen := map[Op]bool{}
		for i := 0; i < 2000; i++ {
			op := sp.RandOp(rng)
			if seen[op] {
				continue
			}
			seen[op] = true
			if sp.ReadOnly(op) {
				readOps = append(readOps, op)
			} else {
				updates = append(updates, op)
			}
		}
		type pair struct{ u, r Op }
		first := map[pair]Value{}
		varies := map[pair]bool{}
		for seq := 0; seq < 300; seq++ {
			st := sp.Init()
			for step, n := 0, rng.Intn(12); ; step++ {
				for _, u := range updates {
					after, _ := sp.Apply(st, u)
					for _, r := range readOps {
						_, v := sp.Apply(after, r)
						if want, ok := AnswerAfter(u, r); ok && v != want {
							t.Fatalf("%s: %s then %s answered %s from state %s, but AnswerAfter = %s", sp.Name(), u, r, v, sp.Encode(st), want)
						}
						p := pair{u, r}
						if v0, ok := first[p]; !ok {
							first[p] = v
						} else if v0 != v {
							varies[p] = true
						}
					}
				}
				if step == n {
					break
				}
				st, _ = sp.Apply(st, sp.RandOp(rng))
			}
		}
		for p := range first {
			if _, ok := AnswerAfter(p.u, p.r); ok {
				inTable++
			} else if !varies[p] {
				t.Errorf("%s: %s then %s is not in the table, yet it gave one answer in every state reached", sp.Name(), p.u, p.r)
			}
		}
	}
	if inTable == 0 {
		t.Fatal("no drawn pair is in the table")
	}
}
