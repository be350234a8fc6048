//go:build race

package server_test

import "time"

// schedSlack is how late a goroutine woken by the network may run while a
// busy peer keeps every processor occupied: the runtime then polls the
// network only on its own tick, and the race detector slows every hop
// several times over. Tests that time a commit's hops allow it.
const schedSlack = 500 * time.Millisecond

// raceTxAllocs is what the race detector adds to one whole transaction's
// allocations: the certifier grows four per-name arrays with
// append(s, make(...)...), whose temporary the compiler elides, but not
// in a race build.
const raceTxAllocs = 4
