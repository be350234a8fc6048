package server

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// newTestWalWriter opens segment firstIndex of a WAL on disk for a server
// of its own: an empty log and a fresh tree, fresh metrics, an open-tops
// count a test may set, and the real clock.
func newTestWalWriter(disk Disk, segMax, firstIndex int) (*walWriter, error) {
	s := &Server{
		opts:    Options{WAL: disk, WALSegmentBytes: segMax, Hooks: realHooks{}},
		tr:      tname.NewTree(),
		log:     &eventLog{},
		metrics: newMetrics(),
	}
	return newWalWriter(s, firstIndex)
}

// newTestScan returns a scan into a fresh tree and log.
func newTestScan() *walScan { return &walScan{tr: tname.NewTree(), log: &eventLog{}} }

// scanFresh scans disk into a fresh tree and log.
func scanFresh(disk Disk) (*walScan, error) { return scanWAL(disk, tname.NewTree(), &eventLog{}) }

// writeRecords writes the given payloads to disk through a walWriter's
// framing and rotation, each as one record in a write of its own.
func writeRecords(t testing.TB, disk Disk, segMax int, payloads ...[]byte) {
	t.Helper()
	w, err := newTestWalWriter(disk, segMax, 1)
	if err != nil {
		t.Fatalf("newWalWriter: %v", err)
	}
	w.syncMu.Lock()
	for _, p := range payloads {
		if w.buf = appendFrame(w.buf, p); err == nil {
			err = w.write()
		}
	}
	w.syncMu.Unlock()
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// tinyWal returns payloads for a minimal consistent WAL: one object, one
// top with one committed access.
func tinyWal() [][]byte {
	return [][]byte{
		event.AppendWalEvents(nil, event.NewEvent(event.Create, tname.Root)),
		event.AppendWalObjectDef(nil, "x", "register"),
		event.AppendWalTxDef(nil, tname.Root, "s1.1", tname.NoObj, spec.Op{}),
		event.AppendWalEvents(nil,
			event.NewEvent(event.RequestCreate, 1),
			event.NewEvent(event.Create, 1)),
		event.AppendWalTxDef(nil, 1, "a1", 0, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)}),
		event.AppendWalEvents(nil, event.NewEvent(event.RequestCreate, 2)),
		event.AppendWalEvents(nil, event.NewEvent(event.Create, 2)),
		event.AppendWalEvents(nil, event.NewValEvent(event.RequestCommit, 2, spec.OK)),
		event.AppendWalEvents(nil,
			event.NewEvent(event.Commit, 2),
			event.NewInform(event.InformCommit, 2, 0),
			event.NewValEvent(event.ReportCommit, 2, spec.OK)),
		event.AppendWalEvents(nil,
			event.NewValEvent(event.RequestCommit, 1, spec.OK),
			event.NewEvent(event.Commit, 1)),
		event.AppendWalEvents(nil, event.NewInform(event.InformCommit, 1, 0)),
		event.AppendWalEvents(nil, event.NewValEvent(event.ReportCommit, 1, spec.OK)),
	}
}

func TestWalScanRoundTrip(t *testing.T) {
	payloads := tinyWal()
	for _, segMax := range []int{1 << 20, 48} { // one segment vs forced rotation
		disk := NewMemDisk()
		writeRecords(t, disk, segMax, payloads...)
		scan, err := scanFresh(disk)
		if err != nil {
			t.Fatalf("segMax=%d: scanWAL: %v", segMax, err)
		}
		if scan.records != len(payloads) {
			t.Fatalf("segMax=%d: got %d records, want %d", segMax, scan.records, len(payloads))
		}
		if scan.tornBytes != 0 {
			t.Fatalf("segMax=%d: unexpected torn tail %d bytes", segMax, scan.tornBytes)
		}
		if segMax == 48 && scan.segments < 2 {
			t.Fatalf("segMax=48 never rotated (got %d segments)", scan.segments)
		}
		if n := scan.log.len(); n != 13 {
			t.Fatalf("segMax=%d: got %d events, want 13", segMax, n)
		}
		if scan.tr.NumObjects() != 1 || scan.tr.NumTx() != 3 || !scan.tr.IsAccess(2) || scan.tr.Parent(2) != 1 {
			t.Fatalf("segMax=%d: the definitions made %d objects and %d names, want an object and a top with one access",
				segMax, scan.tr.NumObjects(), scan.tr.NumTx())
		}
	}
}

// TestWalScanTornTail appends garbage after the valid records of the last
// segment: the scan must truncate it and succeed, and a second scan must
// see a clean WAL of the same records.
func TestWalScanTornTail(t *testing.T) {
	for _, garbage := range [][]byte{
		{0x01},                            // short record
		{0xff, 0xff, 0xff, 0xff, 0x7f},    // absurd record length
		{0x03, 'b', 'a', 'd', 1, 2, 3, 4}, // framed garbage, bad payload+crc
	} {
		disk := NewMemDisk()
		writeRecords(t, disk, 1<<20, tinyWal()...)
		names, _ := disk.Segments()
		last := names[len(names)-1]
		data, _ := disk.ReadSegment(last)
		disk.SetSegment(last, append(append([]byte(nil), data...), garbage...))

		scan, err := scanFresh(disk)
		if err != nil {
			t.Fatalf("garbage %x: scanWAL: %v", garbage, err)
		}
		if scan.tornBytes != int64(len(garbage)) {
			t.Fatalf("garbage %x: truncated %d bytes, want %d", garbage, scan.tornBytes, len(garbage))
		}
		if scan.records != len(tinyWal()) {
			t.Fatalf("garbage %x: got %d records, want %d", garbage, scan.records, len(tinyWal()))
		}
		again, err := scanFresh(disk)
		if err != nil || again.tornBytes != 0 || again.records != scan.records {
			t.Fatalf("garbage %x: rescan after truncation: %v (torn=%d records=%d)",
				garbage, err, again.tornBytes, again.records)
		}
	}
}

// TestWalScanHeaderlessLastSegment: a last segment without even a full
// header is truncated to zero and its index is reused by the resuming
// writer.
func TestWalScanHeaderlessLastSegment(t *testing.T) {
	disk := NewMemDisk()
	writeRecords(t, disk, 1<<20, tinyWal()...)
	disk.SetSegment(segmentName(2), []byte{'N', 'S'})
	scan, err := scanFresh(disk)
	if err != nil {
		t.Fatalf("scanWAL: %v", err)
	}
	if scan.nextIdx != 2 {
		t.Fatalf("nextIdx = %d, want 2 (reuse the dead segment)", scan.nextIdx)
	}
	if data, _ := disk.ReadSegment(segmentName(2)); len(data) != 0 {
		t.Fatalf("dead segment not truncated to zero (%d bytes)", len(data))
	}
}

// TestWalScanRejectsCorruptMiddle: garbage in a non-last segment is not a
// torn tail and must be rejected, never repaired.
func TestWalScanRejectsCorruptMiddle(t *testing.T) {
	disk := NewMemDisk()
	writeRecords(t, disk, 48, tinyWal()...) // rotates into several segments
	names, _ := disk.Segments()
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	data, _ := disk.ReadSegment(names[0])
	data[len(data)-1] ^= 0xff // corrupt the first segment's last record
	disk.SetSegment(names[0], data)
	_, err := scanFresh(disk)
	if err == nil || !isWalCorrupt(err) {
		t.Fatalf("scanWAL on corrupt middle segment: %v, want wal corruption", err)
	}
}

// TestWalScanRejectsSegmentHole: a missing middle segment is corruption —
// a whole run of records vanished — and must be rejected, never skipped.
func TestWalScanRejectsSegmentHole(t *testing.T) {
	disk := NewMemDisk()
	writeRecords(t, disk, 48, tinyWal()...) // rotates into several segments
	names, _ := disk.Segments()
	if len(names) < 3 {
		t.Fatalf("test needs at least three segments, got %d", len(names))
	}
	holed := NewMemDisk()
	for i, n := range names {
		if i == 1 {
			continue // drop a middle segment
		}
		data, _ := disk.ReadSegment(n)
		holed.SetSegment(n, data)
	}
	_, err := scanFresh(holed)
	if err == nil || !isWalCorrupt(err) {
		t.Fatalf("scanWAL with a missing middle segment: %v, want wal corruption", err)
	}
}

// TestMemDiskFreezeCreate: a rotation racing with Freeze must neither
// install a new segment on the pinned disk nor clobber an existing one.
func TestMemDiskFreezeCreate(t *testing.T) {
	disk := NewMemDisk()
	f, _ := disk.Create(segmentName(1))
	f.Write([]byte("pinned"))
	f.Sync()
	disk.Freeze()

	g, err := disk.Create(segmentName(1)) // colliding name
	if err != nil {
		t.Fatalf("Create after Freeze: %v", err)
	}
	g.Write([]byte("late"))
	g.Sync()
	if data, _ := disk.ReadSegment(segmentName(1)); string(data) != "pinned" {
		t.Fatalf("frozen segment clobbered: %q", data)
	}
	if _, err := disk.Create(segmentName(2)); err != nil {
		t.Fatalf("Create after Freeze: %v", err)
	}
	if err := disk.Truncate(segmentName(1), 0); err != nil {
		t.Fatalf("Truncate after Freeze: %v", err)
	}
	if data, _ := disk.ReadSegment(segmentName(1)); string(data) != "pinned" {
		t.Fatalf("frozen segment truncated: %q", data)
	}
	if names, _ := disk.Segments(); len(names) != 1 {
		t.Fatalf("Create after Freeze installed a segment: %v", names)
	}
}

// TestMemDiskCrashSemantics: Crash keeps only the synced prefix (plus the
// requested torn tail), zero-pads the last segment to a memPadBytes
// boundary, and Freeze drops later writes.
func TestMemDiskCrashSemantics(t *testing.T) {
	disk := NewMemDisk()
	f, _ := disk.Create(segmentName(1))
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("-volatile"))
	if got := disk.UnsyncedBytes(); got != len("-volatile") {
		t.Fatalf("UnsyncedBytes = %d", got)
	}
	crash := disk.Crash(3)
	data, _ := crash.ReadSegment(segmentName(1))
	kept := bytes.TrimRight(data, "\x00")
	if string(kept) != "durable-vo" || len(data) != memPadBytes {
		t.Fatalf("crash copy = %q and %d zeros, want %q padded with zeros to %d bytes",
			kept, len(data)-len(kept), "durable-vo", memPadBytes)
	}
	disk.Freeze()
	f.Write([]byte("ignored"))
	f.Sync()
	data, _ = disk.ReadSegment(segmentName(1))
	if strings.Contains(string(data), "ignored") {
		t.Fatal("write after Freeze reached the disk")
	}
}

// TestWalSplitsEventsAtRecordBound: a sync whose events take more than
// maxWalRecord to encode writes them as several WalEvents records, each
// within the bound, in one Write, and they scan back to the same events.
func TestWalSplitsEventsAtRecordBound(t *testing.T) {
	disk := NewMemDisk()
	w, err := newTestWalWriter(disk, 0, 1)
	must(t, err)
	val := spec.Str(strings.Repeat("v", 1000))
	evs := make(event.Behavior, 2500) // ≈ 2.5 MB of events
	for i := range evs {
		evs[i] = event.NewValEvent(event.ReportCommit, tname.Root, val)
	}
	w.srv.log.append(evs...)
	must(t, w.sync())
	must(t, w.close())
	sc, err := scanFresh(disk)
	must(t, err)
	if sc.records < 3 || sc.segments != 1 || !sc.log.snapshot().Equal(evs) {
		t.Fatalf("scanned %d records in %d segments, %d events, want the %d events in at least 3 records of one segment",
			sc.records, sc.segments, sc.log.len(), len(evs))
	}
}

// TestRecoverRejectsBytesAfterZeroMarker: a zero byte where a record would
// start ends a segment's records. Only zeros may follow it in a segment
// before the last; anything else there is corruption, while in the last
// segment it is a torn tail cut back to the marker.
func TestRecoverRejectsBytesAfterZeroMarker(t *testing.T) {
	src := NewMemDisk()
	writeRecords(t, src, 48, tinyWal()...) // rotates into several segments
	names, _ := src.Segments()
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	zeros := make([]byte, 64)
	garbage := append(append([]byte(nil), zeros...), 0x05, 0x01)
	// recoverWith recovers a copy of src whose segment i has tail appended.
	recoverWith := func(i int, tail []byte) (*RecoveryReport, error) {
		disk := NewMemDisk()
		for j, name := range names {
			data, _ := src.ReadSegment(name)
			if j == i {
				data = append(data, tail...)
			}
			disk.SetSegment(name, data)
		}
		s, rep, err := Recover(Options{WAL: disk})
		if err == nil {
			s.Kill()
		}
		return rep, err
	}

	// Zeros only after the first segment's records: its records end there,
	// and the zeros stay.
	rep, err := recoverWith(0, zeros)
	if err != nil {
		t.Fatalf("zero-padded first segment: %v", err)
	}
	if rep.Records != len(tinyWal()) || rep.TornBytes != 0 || rep.ZeroBytes != 0 {
		t.Fatalf("zero-padded first segment: %s", rep.Summary())
	}

	// Non-zero bytes after the marker in the last segment: torn.
	rep, err = recoverWith(len(names)-1, garbage)
	if err != nil {
		t.Fatalf("garbage after the last segment's marker: %v", err)
	}
	if rep.TornBytes != int64(len(garbage)) || rep.ZeroBytes != 0 || rep.Records != len(tinyWal()) {
		t.Fatalf("garbage after the last segment's marker: %s, want %d torn bytes", rep.Summary(), len(garbage))
	}

	// The same bytes after the first segment's records: corruption.
	if _, err := recoverWith(0, garbage); !isWalCorrupt(err) {
		t.Fatalf("non-zero bytes after the first segment's marker: %v, want wal corruption", err)
	}
}

// TestRecoverRejectsDivergentValue: a WAL whose logged REQUEST_COMMIT
// value cannot be reproduced by the automaton replay is rejected cleanly.
func TestRecoverRejectsDivergentValue(t *testing.T) {
	payloads := [][]byte{
		event.AppendWalEvents(nil, event.NewEvent(event.Create, tname.Root)),
		event.AppendWalObjectDef(nil, "x", "register"),
		event.AppendWalTxDef(nil, tname.Root, "s1.1", tname.NoObj, spec.Op{}),
		event.AppendWalEvents(nil,
			event.NewEvent(event.RequestCreate, 1),
			event.NewEvent(event.Create, 1)),
		event.AppendWalTxDef(nil, 1, "a1", 0, spec.Op{Kind: spec.OpRead}),
		event.AppendWalEvents(nil,
			event.NewEvent(event.RequestCreate, 2),
			event.NewEvent(event.Create, 2)),
		// A fresh register reads Nil; the log claims 42.
		event.AppendWalEvents(nil, event.NewValEvent(event.RequestCommit, 2, spec.Int(42))),
	}
	disk := NewMemDisk()
	writeRecords(t, disk, 1<<20, payloads...)
	_, _, err := Recover(Options{WAL: disk})
	if err == nil || !strings.Contains(err.Error(), "replays to") {
		t.Fatalf("Recover: %v, want replay-divergence rejection", err)
	}
}

// TestRecoverRejectsDefsWithoutEvents: definition records with no event
// records cannot come from a live server.
func TestRecoverRejectsDefsWithoutEvents(t *testing.T) {
	disk := NewMemDisk()
	writeRecords(t, disk, 1<<20, event.AppendWalObjectDef(nil, "x", "register"))
	if _, _, err := Recover(Options{WAL: disk}); err == nil {
		t.Fatal("Recover accepted definitions without events")
	}
}

// TestRecoverRejectsDuplicateObject: a WAL that defines one object label
// twice, with the same specification or another, comes from no server;
// the scan refuses it whole, in the words the reference recovery uses,
// even when a torn tail follows it.
func TestRecoverRejectsDuplicateObject(t *testing.T) {
	for _, sp := range []string{"register", "counter"} {
		payloads := append(tinyWal(), event.AppendWalObjectDef(nil, "x", sp))
		img := append(walImage(t, payloads), 0x05, 0x01)
		_, _, err := recoverSegment(img)
		if want := `server: recovery rejected wal: duplicate object "x"`; err == nil || err.Error() != want {
			t.Fatalf("%s: Recover: %v, want %q", sp, err, want)
		}
		checkRecoveryDifferential(t, sp, segmentDisk(img), true)
	}
}

// TestWALDefinitionPrecedesFirstUse pins the WAL's definition-before-use
// order under real concurrency: sessions on two processors intern fresh
// names — every BEGIN, CHILD and ACCESS defines a transaction, every first
// touch an object — and append the events that use them. A name's
// definition record is written inside the critical section that interns it,
// ahead of any event its session can append, so decoding the byte stream
// against running name counts must resolve every reference; an event record
// ahead of a name it uses is what recovery would take for a torn tail.
func TestWALDefinitionPrecedesFirstUse(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		sessions = 4
		txPerSes = 50
	)
	disk := NewMemDisk()
	s, _, err := Recover(Options{WAL: disk, WALSegmentBytes: 4 << 10})
	must(t, err)
	must(t, s.Start("127.0.0.1:0"))
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		c := dialIn(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < txPerSes; n++ {
				obj := fmt.Sprintf("o%d.%d", i, n) // fresh object: its definition races the other sessions' events
				_, err := c.Begin()
				if err == nil {
					_, err = c.Child()
				}
				if err == nil {
					_, err = c.Access(obj, spec.OpWrite, spec.Int(int64(n)))
				}
				if err == nil {
					_, err = c.Commit()
				}
				if err == nil {
					_, err = c.Commit()
				}
				if err != nil {
					t.Errorf("session %d tx %d: %v", i, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	must(t, s.Shutdown(context.Background()))

	names, err := disk.Segments()
	must(t, err)
	sc := newTestScan()
	for _, name := range names {
		data, err := disk.ReadSegment(name)
		must(t, err)
		if at, err := sc.scanSegment(data); err != nil {
			t.Fatalf("%s offset %d, after %d records defining %d transactions and %d objects: %v",
				name, at, sc.records, sc.tr.NumTx(), sc.tr.NumObjects(), err)
		}
	}
	// 3 transaction names per tx plus T0, one object per tx.
	if want := sessions*txPerSes*3 + 1; sc.tr.NumTx() != want || sc.tr.NumObjects() != sessions*txPerSes {
		t.Fatalf("WAL defines %d transactions and %d objects, want %d and %d", sc.tr.NumTx(), sc.tr.NumObjects(), want, sessions*txPerSes)
	}
}

// TestSettleEndsAfterOneFsync: while a peer's top stays open and events
// keep being appended, neither of the settle's other ends comes, and it
// lasts as long as the shorter of the last two fsyncs took — and not much
// longer: the leader looks at the clock after every round. A stalled latest
// fsync does not stretch it. At GOMAXPROCS=1 the appender keeps the
// processor between the leader's rounds, so every round sees the log grown;
// it yields after each append, which keeps it runnable and the log small.
//
// With the appender always runnable, a round ends only when the runtime
// preempts it and polls the network, every 10–20 ms (a 20 ms budget reads
// 20–63 ms, and up to 80 ms under the race detector); slack allows for
// that and is still far below the second the appender runs for.
func TestSettleEndsAfterOneFsync(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 20 * time.Millisecond
	const slack = 200 * time.Millisecond
	for _, tc := range []struct {
		name  string
		times [2]time.Duration
	}{
		{"steady", [2]time.Duration{budget, budget}},
		{"after_a_stall", [2]time.Duration{time.Hour, budget}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := newTestWalWriter(discardDisk{NewMemDisk()}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			w.srv.openTops.Store(1)
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				// A settle without its time bound would never end while
				// events come; the appender gives up after a second, so
				// such a settle fails the test instead of hanging it.
				for give := time.Now().Add(time.Second); time.Now().Before(give); {
					select {
					case <-stop:
						return
					default:
					}
					w.srv.log.append(event.NewEvent(event.Create, tname.Root))
					runtime.Gosched()
				}
			}()
			w.syncMu.Lock()
			w.syncTimes = tc.times
			start := time.Now()
			w.settle()
			d := time.Since(start)
			w.syncMu.Unlock()
			close(stop)
			<-stopped
			if d < budget || d > budget+slack {
				t.Fatalf("settled for %v with events arriving throughout and fsyncs of %v, want %v to %v",
					d, tc.times, budget, budget+slack)
			}
			if w.rounds.Load() == 0 {
				t.Fatal("the settle ran no rounds")
			}
		})
	}
}

// TestRecoverRejectsEarlyInform: the controller of §5.1 informs an object
// of a completion only after it: INFORM_COMMIT_AT(X)OF(T) needs COMMIT(T)
// earlier in the log, and INFORM_ABORT_AT(X)OF(T) needs ABORT(T). A WAL
// that breaks either rule is not a behavior of the generic system, and
// recovery refuses it, naming the event and the rule. Each row is a
// minimal log that breaks one rule and nothing else: the reference
// recovery, which checks every other rule, accepts it, and with the INFORM
// moved after the completion Recover does too.
func TestRecoverRejectsEarlyInform(t *testing.T) {
	const a1 tname.TxID = 2
	x := tname.ObjID(0)
	evs := func(es ...event.Event) []byte { return event.AppendWalEvents(nil, es...) }
	head := [][]byte{
		evs(event.NewEvent(event.Create, tname.Root)),
		event.AppendWalObjectDef(nil, "x", "register"),
		event.AppendWalTxDef(nil, tname.Root, "s1.1", tname.NoObj, spec.Op{}),
		evs(event.NewEvent(event.RequestCreate, 1), event.NewEvent(event.Create, 1)),
		event.AppendWalTxDef(nil, 1, "a1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)}),
		evs(event.NewEvent(event.RequestCreate, a1), event.NewEvent(event.Create, a1)),
	}
	requested := evs(event.NewValEvent(event.RequestCommit, a1, spec.OK))
	for _, c := range []struct {
		name string
		// inform, completion: the inform comes first in the rejected log
		// and second in the accepted one.
		inform, completion event.Event
		tail               [][]byte
		want               string
	}{
		{
			name:       "inform_commit_before_commit",
			inform:     event.NewInform(event.InformCommit, a1, x),
			completion: event.NewEvent(event.Commit, a1),
			tail:       [][]byte{requested},
			want:       "event 6: INFORM_COMMIT_AT(x)OF(T0/s1.1/a1[x write(7)]) breaks rule INFORM_COMMIT: no earlier COMMIT(T0/s1.1/a1[x write(7)])",
		},
		{
			name:       "inform_abort_before_abort",
			inform:     event.NewInform(event.InformAbort, a1, x),
			completion: event.NewEvent(event.Abort, a1),
			want:       "event 5: INFORM_ABORT_AT(x)OF(T0/s1.1/a1[x write(7)]) breaks rule INFORM_ABORT: no earlier ABORT(T0/s1.1/a1[x write(7)])",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			early := append(slices.Clone(head), c.tail...)
			late := slices.Clone(early)
			early = append(early, evs(c.inform), evs(c.completion))
			late = append(late, evs(c.completion), evs(c.inform))
			if _, _, err := recoverSegment(walImage(t, early)); err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Fatalf("Recover: %v, want a rejection ending %q", err, c.want)
			}
			ref, _, err := referenceRecover(Options{WAL: segmentDisk(walImage(t, early))})
			if err != nil {
				t.Fatalf("the reference refuses the log for another rule: %v", err)
			}
			ref.Kill()
			s, _, err := recoverSegment(walImage(t, late))
			if err != nil {
				t.Fatalf("with the INFORM after the completion: %v", err)
			}
			s.Kill()
		})
	}
}
