//go:build !race

package server_test

import "time"

// schedSlack is how late a goroutine woken by the network may run while a
// busy peer keeps every processor occupied: the runtime then polls the
// network only on its own tick. Tests that time a commit's hops allow it.
const schedSlack = 100 * time.Millisecond

// raceTxAllocs is what the race detector adds to one whole transaction's
// allocations: nothing without it.
const raceTxAllocs = 0
