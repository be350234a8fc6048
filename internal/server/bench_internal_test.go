package server

import (
	"fmt"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// BenchmarkLogAppend measures the append path — the hot path of every
// request the server logs — under maximal cross-goroutine contention. It
// writes nothing to the WAL, so it must stay allocation-free (the hotalloc
// analyzer gates the escape analysis; this benchmark gates the observed
// allocs/op and B/op). The log starts empty, so B/op includes the log's own
// growth: the events' bytes once, in chunks, and nothing that a regrowing
// slice would copy again.
func BenchmarkLogAppend(b *testing.B) {
	evs := []event.Event{
		event.NewEvent(event.RequestCreate, tname.TxID(2)),
		event.NewEvent(event.Create, tname.TxID(2)),
	}
	l := &eventLog{}
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

// BenchmarkServerGroupCommit measures group commit, walWriter.sync, under
// maximal contention: every iteration is one committer's event and its
// sync request, and the parallel committers coalesce onto shared fsyncs —
// a committer whose event an fsync that began after it already covered
// returns without one, and a leader copies every event appended before it
// read the log. The log's chunks are made before the timer starts (their
// cost is BenchmarkLogAppend's) and the segments discard their bytes, so
// B/op and allocs/op are the protocol's own, the copy included, and it must
// not allocate.
func BenchmarkServerGroupCommit(b *testing.B) {
	w, err := newTestWalWriter(discardDisk{NewMemDisk()}, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	l := w.srv.log
	l.reserve(b.N)
	ev := event.NewValEvent(event.ReportCommit, tname.Root, spec.OK)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.append(ev)
			if err := w.sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(w.srv.metrics.WALSyncs.Load())/float64(b.N), "fsyncs/op")
}

// reserve makes the chunks for n events ahead of the appends that fill
// them.
func (l *eventLog) reserve(n int) {
	l.mu.Lock()
	for len(l.chunks)*logChunk < n {
		l.grow()
	}
	l.mu.Unlock()
}

// discardDisk is a Disk whose new segments drop what is written to them.
type discardDisk struct{ *MemDisk }

func (discardDisk) Create(string) (SegmentFile, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// BenchmarkWalScan measures recovery's first pass — read, frame-check and
// decode every record into a name tree and an event log — over a ≈ 10
// k-record WAL of the shape the server writes: per transaction two
// definitions and eight event records of a dozen bytes each. Its B/op is
// the segment image plus the tree and the log; a decoder that builds a
// reader per record shows up here ten-fold.
func BenchmarkWalScan(b *testing.B) {
	const txs = 1000
	payloads := [][]byte{
		event.AppendWalEvents(nil, event.NewEvent(event.Create, tname.Root)),
		event.AppendWalObjectDef(nil, "x", "register"),
	}
	for i := 0; i < txs; i++ {
		top, acc := tname.TxID(2*i+1), tname.TxID(2*i+2)
		payloads = append(payloads,
			event.AppendWalTxDef(nil, tname.Root, fmt.Sprintf("s1.%d", i+1), tname.NoObj, spec.Op{}),
			event.AppendWalEvents(nil, event.NewEvent(event.RequestCreate, top), event.NewEvent(event.Create, top)),
			event.AppendWalTxDef(nil, top, "a1", 0, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))}),
			event.AppendWalEvents(nil, event.NewEvent(event.RequestCreate, acc)),
			event.AppendWalEvents(nil, event.NewEvent(event.Create, acc)),
			event.AppendWalEvents(nil, event.NewValEvent(event.RequestCommit, acc, spec.OK)),
			event.AppendWalEvents(nil,
				event.NewEvent(event.Commit, acc),
				event.NewInform(event.InformCommit, acc, 0),
				event.NewValEvent(event.ReportCommit, acc, spec.OK)),
			event.AppendWalEvents(nil, event.NewValEvent(event.RequestCommit, top, spec.OK), event.NewEvent(event.Commit, top)),
			event.AppendWalEvents(nil, event.NewInform(event.InformCommit, top, 0)),
			event.AppendWalEvents(nil, event.NewValEvent(event.ReportCommit, top, spec.OK)),
		)
	}
	disk := NewMemDisk()
	writeRecords(b, disk, 0, payloads...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := scanFresh(disk)
		if err != nil {
			b.Fatal(err)
		}
		if scan.records != len(payloads) || scan.tornBytes != 0 {
			b.Fatalf("scanned %d records (%d torn bytes), wrote %d", scan.records, scan.tornBytes, len(payloads))
		}
	}
	b.ReportMetric(float64(len(payloads)), "records")
}
