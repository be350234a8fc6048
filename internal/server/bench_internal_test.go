package server

import (
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/tname"
)

// BenchmarkLogAppend measures the append path with a WAL attached — the
// hot path of every request the server logs, under maximal cross-goroutine
// contention. The log's wal-encode buffer and the writer's scratch buffer
// must keep it allocation-free (the hotalloc analyzer gates the escape
// analysis; this benchmark gates the observed allocs/op and B/op). The log
// slice is sized up front: its growth is retention, which depends on b.N
// and the runtime's growth policy, not on the append path.
func BenchmarkLogAppend(b *testing.B) {
	w, err := newWalWriter(NewMemDisk(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	evs := []event.Event{
		event.NewEvent(event.RequestCreate, tname.TxID(2)),
		event.NewEvent(event.Create, tname.TxID(2)),
	}
	l := newEventLog()
	l.wal = w
	l.events = make(event.Behavior, 0, b.N*len(evs))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.append(evs...)
		}
	})
	b.StopTimer()
	if got, want := l.len(), b.N*len(evs); got != want {
		b.Fatalf("log holds %d events after %d appends of %d", got, b.N, len(evs))
	}
}

// BenchmarkServerGroupCommit measures the group committer under maximal
// contention: every iteration is one committer's sync request, and the
// parallel committers coalesce onto shared fsync generations. The ticket
// protocol itself must not allocate.
func BenchmarkServerGroupCommit(b *testing.B) {
	w, err := newWalWriter(NewMemDisk(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := newGroupCommitter(w, newMetrics())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := g.sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
