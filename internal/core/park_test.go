package core

import (
	"slices"
	"testing"
)

// TestParkArenaKeepsOrder: a list pops in push order, a splice appends one
// list to another in order, and popped slots are reused. Admission order
// decides which conflict pairs are compared, so the arena must release
// parked items exactly in the order the per-blocker slices it replaced did.
func TestParkArenaKeepsOrder(t *testing.T) {
	var a parkArena[int]
	a.reset()
	drain := func(tail *int32) []int {
		var out []int
		for v, ok := a.pop(tail); ok; v, ok = a.pop(tail) {
			out = append(out, v)
		}
		return out
	}
	x, y, empty := int32(-1), int32(-1), int32(-1)
	for v := 1; v <= 3; v++ {
		a.push(&x, v)
	}
	a.push(&y, 4)
	a.push(&y, 5)
	a.splice(&y, &empty)
	a.splice(&y, &x)
	a.splice(&empty, &y)
	if x != -1 || y != -1 {
		t.Fatalf("spliced-from lists not emptied: tails %d, %d", x, y)
	}
	if got := drain(&empty); !slices.Equal(got, []int{4, 5, 1, 2, 3}) {
		t.Fatalf("drained %v, want [4 5 1 2 3]", got)
	}
	for v := 6; v <= 10; v++ {
		a.push(&x, v)
	}
	if len(a.items) != 5 {
		t.Errorf("%d slots after refilling 5 freed ones, want 5", len(a.items))
	}
	if got := drain(&x); !slices.Equal(got, []int{6, 7, 8, 9, 10}) {
		t.Fatalf("drained %v, want [6 7 8 9 10]", got)
	}
}
