package core

// parkArena holds the items parked on every blocker in one array: the items
// parked on one transaction form a circular list through next, reached from
// the list's tail (the tail's next is the head), so a list appends, splices
// onto another and pops its head in O(1). Slots of popped items go on a free
// list and are reused, so a long stream — and Reset followed by a refill —
// parks without steady-state allocations. A tail of -1 is the empty list.
type parkArena[T any] struct {
	items []parkedItem[T]
	free  []int32
}

type parkedItem[T any] struct {
	v    T
	next int32
}

// reset empties every list, keeping the backing array.
func (a *parkArena[T]) reset() {
	a.items = a.items[:0]
	a.free = a.free[:0]
}

// push appends v to the list ending at *tail.
//
//sgvet:hotpath
func (a *parkArena[T]) push(tail *int32, v T) {
	var i int32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
		a.items[i].v = v
	} else {
		i = int32(len(a.items))
		a.items = append(a.items, parkedItem[T]{v: v})
	}
	if *tail < 0 {
		a.items[i].next = i
	} else {
		a.items[i].next = a.items[*tail].next
		a.items[*tail].next = i
	}
	*tail = i
}

// splice moves the list ending at *from onto the end of the list ending at
// *to, keeping both orders, and leaves *from empty.
//
//sgvet:hotpath
func (a *parkArena[T]) splice(to, from *int32) {
	if *from < 0 {
		return
	}
	if *to >= 0 {
		// Join the circles: to's tail leads on to from's head, and from's
		// tail, the new tail, back to to's head.
		a.items[*to].next, a.items[*from].next = a.items[*from].next, a.items[*to].next
	}
	*to, *from = *from, -1
}

// pop removes the head of the list ending at *tail and returns it, or
// reports false when the list is empty.
//
//sgvet:hotpath
func (a *parkArena[T]) pop(tail *int32) (T, bool) {
	var zero T
	t := *tail
	if t < 0 {
		return zero, false
	}
	h := a.items[t].next
	if h == t {
		*tail = -1
	} else {
		a.items[t].next = a.items[h].next
	}
	a.free = append(a.free, h)
	return a.items[h].v, true
}
