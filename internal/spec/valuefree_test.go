package spec

import (
	"math/rand"
	"testing"
)

// valuePool returns the values sp's operations return, without repeats,
// drawn by replaying n operations of RandOp in runs of eight from Init, so
// that the answers of small states, such as an empty queue's deq, occur.
func valuePool(sp Spec, rng *rand.Rand, n int) []Value {
	seen := map[Value]bool{}
	var pool []Value
	var st State
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			st = sp.Init()
		}
		var v Value
		st, v = sp.Apply(st, sp.RandOp(rng))
		if !seen[v] {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	return pool
}

// TestValueFreeConflicts holds ValueFreeConflicts to what it declares, for
// every built-in type: for a value-free type, Conflicts(a, b) stays as it
// is when both values are replaced by any values of the type's domain, and
// a type left out has a pair whose answer a replacement changes, so the
// table is exact. Operations and values are drawn with RandOp from a fixed
// seed.
func TestValueFreeConflicts(t *testing.T) {
	for _, sp := range All() {
		free := ValueFreeConflicts(sp)
		rng := rand.New(rand.NewSource(1))
		pool := valuePool(sp, rng, 400)
		changed := false
		for i := 0; i < 200; i++ {
			a := OpVal{Op: sp.RandOp(rng), Val: pool[rng.Intn(len(pool))]}
			b := OpVal{Op: sp.RandOp(rng), Val: pool[rng.Intn(len(pool))]}
			want := sp.Conflicts(a, b)
			for _, va := range pool {
				for _, vb := range pool {
					a2, b2 := OpVal{Op: a.Op, Val: va}, OpVal{Op: b.Op, Val: vb}
					if sp.Conflicts(a2, b2) == want {
						continue
					}
					if free {
						t.Fatalf("%s declares value-free conflicts, but Conflicts(%s, %s) = %v and Conflicts(%s, %s) = %v",
							sp.Name(), a, b, want, a2, b2, !want)
					}
					changed = true
				}
			}
		}
		if !free && !changed {
			t.Errorf("%s: no drawn pair's Conflicts depends on the values; the table could declare it value-free", sp.Name())
		}
	}
}
