package server

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// segmentImage renders the tinyWal records into one durable segment and
// returns its raw bytes.
func segmentImage(t testing.TB) []byte { return walImage(t, tinyWal()) }

// walImage renders payloads into one durable segment and returns its raw
// bytes.
func walImage(t testing.TB, payloads [][]byte) []byte {
	t.Helper()
	disk := NewMemDisk()
	writeRecords(t, disk, 1<<20, payloads...)
	data, err := disk.ReadSegment(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverSegment plants data as the only (fully synced) WAL segment and
// runs Recover over it.
func recoverSegment(data []byte) (*Server, *RecoveryReport, error) {
	disk := NewMemDisk()
	disk.SetSegment(segmentName(1), data)
	return Recover(Options{WAL: disk})
}

// FuzzRecoveryReplay feeds arbitrary bytes to the WAL scan + replay +
// stitch pipeline as a torn/corrupted segment. The contract: Recover never
// panics — it either rejects the bytes with an error, or returns a server
// whose stitched log passed both the batch check and the online/batch
// certificate audit. It agrees with referenceRecover on the verdict and,
// when it recovers, on everything checkRecoveryDifferential compares. A
// served WAL must also be stable: recovering the stitched disk again needs
// no further repairs and yields the identical trace.
func FuzzRecoveryReplay(f *testing.F) {
	img := segmentImage(f)
	f.Add(img)
	f.Add(img[:len(img)-3]) // torn mid-record
	f.Add(img[:6])          // header only
	f.Add([]byte{})
	f.Add([]byte("NSGW\x01"))
	f.Add([]byte("not a wal"))
	f.Add(zeroPad(img, 4<<10))              // a killed DirDisk's grown file
	f.Add(zeroPad(img[:len(img)-3], 4<<10)) // torn, then zeros
	f.Add(walImage(f, partlyDecodedTailWal()))
	f.Add(emptyRecordTail(img))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecoveryDifferential(t, "input", segmentDisk(data), false)
		disk := segmentDisk(data)
		s, rep, err := Recover(Options{WAL: disk})
		if err != nil {
			return // clean rejection is fine; panics are not
		}
		if !rep.AuditOK {
			t.Fatalf("Recover returned without error but audit not ok: %s", rep.Summary())
		}
		trace := event.MarshalBinaryTrace(s.tr, s.log.snapshot())
		s.Kill()

		// The stitched WAL on disk must recover again with no repairs.
		s2, rep2, err := Recover(Options{WAL: disk})
		if err != nil {
			t.Fatalf("stitched wal does not recover: %v (first: %s)", err, rep.Summary())
		}
		if rep2.OrphanTops != 0 || rep2.FixupInforms != 0 || rep2.TornBytes != 0 || rep2.ZeroBytes != 0 {
			t.Fatalf("second recovery repaired a stitched wal: %s", rep2.Summary())
		}
		trace2 := event.MarshalBinaryTrace(s2.tr, s2.log.snapshot())
		s2.Kill()
		if !bytes.Equal(trace, trace2) {
			t.Fatal("stitched trace not stable across recoveries")
		}
	})
}

// emptyRecordTail returns img followed by a record whose payload is empty
// and a stray byte: its length a zero in two bytes, which no writer emits
// (an empty payload is refused) but which frames and passes its checksum,
// the empty payload's zero. The stray byte keeps the record from reading
// as trailing zeros.
func emptyRecordTail(img []byte) []byte {
	return append(slices.Clone(img), 0x80, 0x00, 0, 0, 0, 0, 0x01)
}

// partlyDecodedTailWal returns tinyWal's records followed by a definition
// of s1.2 and a WalEvents record that passes its checksum but decodes only
// part-way: s1.2's REQUEST_CREATE and CREATE decode, and the third event
// names an unknown transaction.
func partlyDecodedTailWal() [][]byte {
	return append(tinyWal(),
		event.AppendWalTxDef(nil, tname.Root, "s1.2", tname.NoObj, spec.Op{}),
		event.AppendWalEvents(nil,
			event.NewEvent(event.RequestCreate, 3),
			event.NewEvent(event.Create, 3),
			event.NewEvent(event.Create, 99)))
}

// TestRecoverDropsPartlyDecodedTail: as the last segment's tail, a record
// that fails to decode part-way through its events is torn, and none of
// the events before the failure may enter the recovered log.
func TestRecoverDropsPartlyDecodedTail(t *testing.T) {
	payloads := partlyDecodedTailWal()
	img, bareImg := walImage(t, payloads), walImage(t, payloads[:len(payloads)-1])
	s, rep, err := recoverSegment(img)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := s.log.snapshot()
	s.Kill()
	bare, bareRep, err := recoverSegment(bareImg)
	if err != nil {
		t.Fatalf("Recover without the tail: %v", err)
	}
	want := bare.log.snapshot()
	bare.Kill()
	if rep.TornBytes != int64(len(img)-len(bareImg)) || rep.DurableEvents != bareRep.DurableEvents {
		t.Fatalf("recovered %d events with %d torn bytes, want %d events and the %d-byte tail torn",
			rep.DurableEvents, rep.TornBytes, bareRep.DurableEvents, len(img)-len(bareImg))
	}
	for i, e := range got {
		if e.Tx == 3 {
			t.Fatalf("recovered log event %d is %v, from the torn record", i, e)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered log differs from the log recovered without the torn record:\n got %v\nwant %v", got, want)
	}
}

// TestRecoverTruncationPrefixes runs Recover on every byte prefix of a
// real segment image: each must either recover with a passing audit or be
// rejected cleanly.
func TestRecoverTruncationPrefixes(t *testing.T) {
	img := segmentImage(t)
	for n := 0; n <= len(img); n++ {
		s, rep, err := recoverSegment(img[:n])
		if err != nil {
			continue
		}
		if !rep.AuditOK {
			t.Fatalf("prefix %d: recovered without audit: %s", n, rep.Summary())
		}
		s.Kill()
	}
}

// twoSessionWal returns the payloads of a crash image in which two
// sessions interleave, laid out so that its prefixes need every repair:
//
//   - s2.1 is defined before s1.1 and created after it, so a cut between
//     the two CREATEs leaves session 2's label defined but not created, and
//     a cut after both leaves two orphans whose CREATE order is not their
//     TxID order;
//   - s1.1/c1 commits in one record and delivers its INFORM_COMMIT in the
//     next, and s2.1/c1 aborts with its INFORM_ABORT in a record of its own,
//     so cuts between them leave informs owed;
//   - the last record defines s1.2, whose CREATE never made it.
func twoSessionWal() [][]byte {
	const (
		s21, s11, c11, a11, c21, a21, s12 tname.TxID  = 1, 2, 3, 4, 5, 6, 7
		x, y                              tname.ObjID = 0, 1
	)
	evs := func(es ...event.Event) []byte { return event.AppendWalEvents(nil, es...) }
	e := event.NewEvent
	return [][]byte{
		evs(e(event.Create, tname.Root)),
		event.AppendWalObjectDef(nil, "x", "register"),
		event.AppendWalObjectDef(nil, "y", "register"),
		event.AppendWalTxDef(nil, tname.Root, "s2.1", tname.NoObj, spec.Op{}),
		event.AppendWalTxDef(nil, tname.Root, "s1.1", tname.NoObj, spec.Op{}),
		evs(e(event.RequestCreate, s11), e(event.Create, s11)),
		evs(e(event.RequestCreate, s21), e(event.Create, s21)),
		// Session 1: a subtransaction writes x and commits.
		event.AppendWalTxDef(nil, s11, "c1", tname.NoObj, spec.Op{}),
		evs(e(event.RequestCreate, c11), e(event.Create, c11)),
		event.AppendWalTxDef(nil, c11, "a1", x, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(7)}),
		evs(e(event.RequestCreate, a11)),
		evs(e(event.Create, a11)),
		evs(event.NewValEvent(event.RequestCommit, a11, spec.OK)),
		evs(e(event.Commit, a11), event.NewInform(event.InformCommit, a11, x), event.NewValEvent(event.ReportCommit, a11, spec.OK)),
		evs(event.NewValEvent(event.RequestCommit, c11, spec.OK), e(event.Commit, c11)),
		evs(event.NewInform(event.InformCommit, c11, x)),
		evs(event.NewValEvent(event.ReportCommit, c11, spec.OK)),
		// Session 2: a subtransaction writes y and is aborted.
		event.AppendWalTxDef(nil, s21, "c1", tname.NoObj, spec.Op{}),
		evs(e(event.RequestCreate, c21), e(event.Create, c21)),
		event.AppendWalTxDef(nil, c21, "a1", y, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(9)}),
		evs(e(event.RequestCreate, a21)),
		evs(e(event.Create, a21)),
		evs(event.NewValEvent(event.RequestCommit, a21, spec.OK)),
		evs(e(event.Commit, a21), event.NewInform(event.InformCommit, a21, y), event.NewValEvent(event.ReportCommit, a21, spec.OK)),
		evs(e(event.Abort, c21)),
		evs(event.NewInform(event.InformAbort, c21, y)),
		evs(e(event.ReportAbort, c21)),
		// Session 1 commits its top and defines its next one.
		evs(event.NewValEvent(event.RequestCommit, s11, spec.OK), e(event.Commit, s11)),
		evs(event.NewInform(event.InformCommit, s11, x)),
		evs(event.NewValEvent(event.ReportCommit, s11, spec.OK)),
		event.AppendWalTxDef(nil, tname.Root, "s1.2", tname.NoObj, spec.Op{}),
	}
}

// TestRecoverRepairPrefixes runs Recover on every byte prefix of the
// twoSessionWal image. Each must be rejected cleanly or recover to a log
// whose name tree validates, whose orphans abort in TxID order, and which
// recovers again with no repairs to the identical trace; and the next
// session's top-level label must be new, defined or not.
func TestRecoverRepairPrefixes(t *testing.T) {
	img := walImage(t, twoSessionWal())
	var fixups, twoOrphans, recovered int
	for n := 0; n <= len(img); n++ {
		disk := NewMemDisk()
		disk.SetSegment(segmentName(1), img[:n])
		s, rep, err := Recover(Options{WAL: disk})
		if err != nil {
			continue
		}
		recovered++
		if err := s.tr.Validate(); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		log := s.log.snapshot()
		last := tname.Root
		for _, e := range log[rep.DurableEvents:] {
			if e.Kind == event.Abort && s.tr.Parent(e.Tx) == tname.Root {
				if e.Tx < last {
					t.Fatalf("prefix %d: orphan %s aborted after %s", n, s.tr.Name(e.Tx), s.tr.Name(last))
				}
				last = e.Tx
			}
		}
		if rep.FixupInforms > 0 {
			fixups++
		}
		if rep.OrphanTops == 2 {
			twoOrphans++
		}
		trace := event.MarshalBinaryTrace(s.tr, log)
		s.Kill()

		s2, rep2, err := Recover(Options{WAL: disk})
		if err != nil {
			t.Fatalf("prefix %d: stitched wal does not recover: %v (first: %s)", n, err, rep.Summary())
		}
		if rep2.OrphanTops != 0 || rep2.FixupInforms != 0 {
			t.Fatalf("prefix %d: second recovery repaired a stitched wal: %s", n, rep2.Summary())
		}
		if !bytes.Equal(trace, event.MarshalBinaryTrace(s2.tr, s2.log.snapshot())) {
			t.Fatalf("prefix %d: stitched trace not stable across recoveries", n)
		}
		tops := map[string]bool{}
		for id := 1; id < s2.tr.NumTx(); id++ {
			if s2.tr.Parent(tname.TxID(id)) == tname.Root {
				tops[s2.tr.Label(tname.TxID(id))] = true
			}
		}
		cli, srv := net.Pipe()
		s2.ServeConn(srv)
		c := client.NewConn(cli)
		name, err := c.Begin()
		c.Close()
		s2.Kill()
		if err != nil {
			t.Fatalf("prefix %d: begin after recovery: %v", n, err)
		}
		if tops[name] {
			t.Fatalf("prefix %d: the next session's top is %s, a recovered label", n, name)
		}
	}
	t.Logf("%d of %d prefixes recovered, %d with fix-up informs, %d with two orphans",
		recovered, len(img)+1, fixups, twoOrphans)
	// Whole records recover, so most prefixes do; the layout must have
	// exercised both repairs and the TxID order of two orphans.
	if recovered < len(img)/2 || fixups == 0 || twoOrphans == 0 {
		t.Fatalf("%d of %d prefixes recovered, %d with fix-up informs, %d with two orphans",
			recovered, len(img)+1, fixups, twoOrphans)
	}
}

// TestRecoverEveryEventPrefix: a torn sync, or a split at maxWalRecord,
// may end the WAL after any event: inside one session append (between
// REQUEST_COMMIT and COMMIT, or ABORT and its INFORMs) as well as between
// two. For every k, the WAL writer copies the first k events of the
// twoSessionWal log, with the names they use, as a sync's leader does, and
// Recover must serve the result: its audit passes, the online engine
// matches the batch check, and the recovered log is those k events
// followed by the stitch's repairs, which append only completions, the
// INFORMs they owe, and REPORT_ABORTs.
func TestRecoverEveryEventPrefix(t *testing.T) {
	full, err := scanFresh(segmentDisk(walImage(t, twoSessionWal())))
	must(t, err)
	beta := full.log.snapshot()
	want := strings.Split(strings.TrimSuffix(beta.Format(full.tr), "\n"), "\n")
	for k := 1; k <= len(beta); k++ {
		disk := NewMemDisk()
		w, err := newTestWalWriter(disk, 0, 1)
		must(t, err)
		w.srv.tr = full.tr
		w.srv.log.append(beta[:k]...)
		must(t, w.sync())
		w.closeNoSync()

		checkRecoveryDifferential(t, fmt.Sprintf("k=%d", k), disk, true)
		s, rep, err := Recover(Options{WAL: disk})
		if err != nil {
			t.Fatalf("k=%d: Recover: %v", k, err)
		}
		f := s.Final()
		log := s.log.snapshot()
		got := strings.Split(strings.TrimSuffix(log.Format(s.tr), "\n"), "\n")
		s.Kill()
		if !rep.AuditOK || !f.Batch.OK || !f.Match {
			t.Fatalf("k=%d: audit %v, batch %v, online matches batch %v: %s", k, rep.AuditOK, f.Batch.OK, f.Match, rep.Summary())
		}
		if rep.DurableEvents != k || rep.StitchedEvents != len(log) || !slices.Equal(got[:k], want[:k]) {
			t.Fatalf("k=%d: recovered %d durable events of %d:\n%s", k, rep.DurableEvents, len(log), log.Format(s.tr))
		}
		for _, e := range log[k:] {
			switch e.Kind {
			case event.Abort, event.InformCommit, event.InformAbort, event.ReportAbort:
			default:
				t.Fatalf("k=%d: the stitch appended %s:\n%s", k, e.Format(s.tr), log.Format(s.tr))
			}
		}
	}
}

// zeroPad returns data followed by zeros up to size bytes.
func zeroPad(data []byte, size int) []byte {
	out := make([]byte, max(size, len(data)))
	copy(out, data)
	return out
}

// TestRecoverZeroPaddedPrefixes: a DirDisk segment grows ahead of its
// records, so a killed server leaves every byte prefix of a segment
// followed by zeros. Padded to a page or to a whole growth step, each
// prefix must recover to the bare prefix's trace with the same torn bytes,
// or be rejected with the same error; the padding shows up as zero bytes
// trimmed, never as torn ones.
func TestRecoverZeroPaddedPrefixes(t *testing.T) {
	img := segmentImage(t)
	for n := 0; n <= len(img); n++ {
		s, bare, err := recoverSegment(img[:n])
		var want []byte
		if err == nil {
			want = event.MarshalBinaryTrace(s.tr, s.log.snapshot())
			s.Kill()
		}
		for _, size := range []int{4 << 10, dirGrowBytes} {
			s, rep, perr := recoverSegment(zeroPad(img[:n], size))
			if err != nil || perr != nil {
				if err == nil || perr == nil || perr.Error() != err.Error() {
					t.Fatalf("prefix %d padded to %d: %v, bare prefix: %v", n, size, perr, err)
				}
				continue
			}
			got := event.MarshalBinaryTrace(s.tr, s.log.snapshot())
			s.Kill()
			if !bytes.Equal(got, want) {
				t.Fatalf("prefix %d padded to %d: recovered trace differs from the bare prefix's", n, size)
			}
			if rep.TornBytes != bare.TornBytes || rep.ZeroBytes != bare.ZeroBytes+int64(size-n) {
				t.Fatalf("prefix %d padded to %d: %d torn and %d zero bytes, want %d and %d",
					n, size, rep.TornBytes, rep.ZeroBytes, bare.TornBytes, bare.ZeroBytes+int64(size-n))
			}
		}
	}
}

// TestRecoverZeroPaddedAllocs: scanSegment presizes the name tree from the
// record region, not the segment's length, so a segment padded with a
// growth step of zeros scans with the allocations of its records.
func TestRecoverZeroPaddedAllocs(t *testing.T) {
	img := segmentImage(t)
	padded := zeroPad(img, dirGrowBytes)
	scanBytes := func(data []byte) uint64 {
		const runs = 20
		best := uint64(math.MaxUint64)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := newTestScan().scanSegment(data); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	bare, pad := scanBytes(img), scanBytes(padded)
	t.Logf("scanSegment allocates %d B for %d bytes of records, %d B padded to %d", bare, len(img), pad, len(padded))
	if pad > 2*bare {
		t.Fatalf("scanning the padded segment allocates %d B, over twice the %d B of its records", pad, bare)
	}
}

// TestRegenerateRecoveryFuzzCorpus rewrites the committed seed corpus for
// FuzzRecoveryReplay when UPDATE_FUZZ_CORPUS=1; otherwise it checks the
// committed files are current.
func TestRegenerateRecoveryFuzzCorpus(t *testing.T) {
	img := segmentImage(t)
	checkFuzzCorpus(t, "FuzzRecoveryReplay", map[string][]byte{
		"seed_segment":  img,
		"seed_torn":     img[:len(img)-3],
		"seed_header":   img[:6],
		"seed_garbage":  []byte("not a wal"),
		"seed_headless": []byte("NS"),
		// A page of zeros after the records, and after a torn record.
		"seed_zero_tail":      zeroPad(img, 4<<10),
		"seed_torn_zero_tail": zeroPad(img[:len(img)-3], 4<<10),
		// Two interleaved sessions whose prefixes need every repair.
		"seed_two_sessions": walImage(t, twoSessionWal()),
		// A torn tail record that decodes part-way.
		"seed_partly_decoded_tail": walImage(t, partlyDecodedTailWal()),
		// A tail record framed with an empty payload.
		"seed_empty_record": emptyRecordTail(img),
	})
}

// checkFuzzCorpus writes seeds as the committed corpus of the fuzz target
// when UPDATE_FUZZ_CORPUS=1, and otherwise checks the committed files are
// current.
func checkFuzzCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus missing (run with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != content {
			t.Fatalf("seed corpus %s/%s is stale (run with UPDATE_FUZZ_CORPUS=1)", target, name)
		}
	}
}

// logSeeds are the committed seeds of FuzzLogRoundTrip: WalEvents payloads
// with every event kind and every value kind, strings among them.
func logSeeds() map[string][]byte {
	all := []event.Event{
		event.NewEvent(event.Create, tname.Root),
		event.NewEvent(event.RequestCreate, 1),
		event.NewValEvent(event.RequestCommit, 2, spec.Str("hello")),
		event.NewValEvent(event.ReportCommit, 2, spec.Str("")),
		event.NewValEvent(event.RequestCommit, 3, spec.Int(-5)),
		event.NewValEvent(event.RequestCommit, 4, spec.Bool(true)),
		event.NewValEvent(event.ReportCommit, 4, spec.Bool(false)),
		event.NewValEvent(event.RequestCommit, 1, spec.OK),
		event.NewValEvent(event.ReportCommit, 5, spec.Nil),
		event.NewEvent(event.Commit, 1),
		event.NewInform(event.InformCommit, 1, 0),
		event.NewInform(event.InformAbort, 6, 3),
		event.NewEvent(event.Abort, 6),
		event.NewEvent(event.ReportAbort, 6),
	}
	var strs []event.Event
	for i := range 300 {
		strs = append(strs, event.NewValEvent(event.RequestCommit, tname.TxID(i), spec.Str(strconv.Itoa(i))))
	}
	return map[string][]byte{
		"seed_every_kind":  event.AppendWalEvents(nil, all...),
		"seed_one_string":  event.AppendWalEvents(nil, all[2]),
		"seed_strings":     event.AppendWalEvents(nil, strs...),
		"seed_not_events":  event.AppendWalObjectDef(nil, "x", "register"),
		"seed_bad_payload": []byte("E\x05\x01"),
	}
}

// TestRegenerateLogFuzzCorpus is TestRegenerateRecoveryFuzzCorpus for
// FuzzLogRoundTrip.
func TestRegenerateLogFuzzCorpus(t *testing.T) {
	checkFuzzCorpus(t, "FuzzLogRoundTrip", logSeeds())
}

// FuzzLogRoundTrip: any events DecodeWalOp accepts, string values
// included, survive the log's packed records. Appended batch after batch
// from just short of a chunk boundary until the log is past it, they read
// back equal to the input through snapshot and through runs of seven
// decoded in place (logView.Run), as the certifier reads them. Its seeds
// are committed (TestRegenerateLogFuzzCorpus).
func FuzzLogRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, err := event.DecodeWalOp(payload, math.MaxInt32, math.MaxInt32)
		if err != nil || op.Kind != event.WalEvents || len(op.Events) == 0 {
			return
		}
		l := &eventLog{}
		want := make(event.Behavior, logChunk-1-len(payload)%64)
		for i := range want {
			want[i] = event.NewEvent(event.Create, tname.Root)
		}
		l.append(want...)
		for l.len() <= logChunk+len(op.Events) {
			if base := l.append(op.Events...); base != len(want) {
				t.Fatalf("append at length %d returned %d", len(want), base)
			}
			want = append(want, op.Events...)
		}
		if got := l.snapshot(); !got.Equal(want) {
			t.Fatalf("snapshot of %d events differs from the %d appended", len(got), len(want))
		}
		v := l.view()
		if v.n != len(want) {
			t.Fatalf("view holds %d events, want %d", v.n, len(want))
		}
		var buf [7]event.Event
		for i := 0; i < len(want); {
			run := v.Run(i, buf[:])
			if len(run) == 0 {
				t.Fatalf("run at event %d is empty", i)
			}
			for k, got := range run {
				if e := want[i+k]; got != e {
					t.Fatalf("event %d reads back as %v, want %v", i+k, got, e)
				}
			}
			i += len(run)
		}
	})
}
