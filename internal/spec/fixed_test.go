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
