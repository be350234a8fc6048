package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// TestLogAppendAllocatesOnce: a log that grows to N events allocates their
// bytes once — N records' worth of chunks, at most one chunk of slack, and
// the chunk-pointer array's own doubling — where one slice regrown by
// append allocates about five times its final size. A record is 16 bytes
// and a chunk exactly the 32 KiB size class.
func TestLogAppendAllocatesOnce(t *testing.T) {
	size := uint64(unsafe.Sizeof(logRec{}))
	if size != 16 {
		t.Fatalf("logRec is %d bytes, want 16", size)
	}
	if logChunk*size != 32<<10 {
		t.Fatalf("a chunk of %d records is %d B, want the 32 KiB size class", logChunk, logChunk*size)
	}
	const n = 64 * logChunk
	evs := []event.Event{
		event.NewEvent(event.RequestCreate, tname.TxID(2)),
		event.NewEvent(event.Create, tname.TxID(2)),
	}
	l := &eventLog{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n/len(evs); i++ {
		l.append(evs...)
	}
	runtime.ReadMemStats(&after)

	// A doubling array allocates under twice its final size in all; twice
	// that again covers the size classes it is rounded up to.
	header := 4 * uint64(n/logChunk) * uint64(unsafe.Sizeof(uintptr(0)))
	bound := n*size + logChunk*size + header
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("appending %d events of %d B allocated %d B, want at most %d (%.2f× the records)",
			n, size, got, bound, float64(got)/float64(n*size))
	}
	if got := l.len(); got != n {
		t.Fatalf("log holds %d events, want %d", got, n)
	}
}

// TestLogRecordIsPointerFree: the log keeps a record per event for as long
// as the server runs, so a record must hold nothing the garbage collector
// has to scan (the records of internal/graph and internal/core are held to
// the same rule).
func TestLogRecordIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(logRec{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Int64, reflect.Uint8:
		default:
			t.Errorf("%s.%s is a %s", typ, f.Name, f.Type.Kind())
		}
	}
}

// TestLogAppendStraddlesChunks: appends of several events that cross one
// chunk boundary, span whole chunks, or end exactly on a boundary keep the
// log order and the returned indexes, and never leave a spare chunk.
func TestLogAppendStraddlesChunks(t *testing.T) {
	l := &eventLog{}
	var want event.Behavior
	put := func(k int) {
		t.Helper()
		evs := make([]event.Event, k)
		for i := range evs {
			evs[i] = event.NewEvent(event.Create, tname.TxID(len(want)+i))
		}
		if base := l.append(evs...); base != len(want) {
			t.Fatalf("append of %d at length %d returned index %d", k, len(want), base)
		}
		want = append(want, evs...)
	}
	for len(want) < logChunk-1 {
		put(1)
	}
	put(3)            // logChunk-1 … logChunk+1
	put(2 * logChunk) // two boundaries, one whole chunk between them
	put(logChunk - len(want)%logChunk)
	if len(want)%logChunk != 0 {
		t.Fatalf("setup: log length %d is not on a chunk boundary", len(want))
	}
	put(1) // starts a chunk
	if got := l.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot of %d events differs from the %d appended", len(got), len(want))
	}
	v := l.view()
	if v.n != len(want) || len(v.chunks) != (v.n+logChunk-1)/logChunk {
		t.Fatalf("%d events in %d chunks, want %d in %d", v.n, len(v.chunks), len(want), (len(want)+logChunk-1)/logChunk)
	}
}

// cutHooks is the real hook set with a certifier whose runs are cut at
// fixed log indexes; it records the index every run starts at.
type cutHooks struct {
	realHooks
	cuts []int // ascending

	mu     sync.Mutex
	starts []int
}

func (h *cutHooks) CertApply(index, max int) int {
	h.mu.Lock()
	h.starts = append(h.starts, index)
	h.mu.Unlock()
	for _, c := range h.cuts {
		if c > index {
			return min(max, c-index)
		}
	}
	return max
}

// TestCombineRunsAtChunkBoundaries: certification runs that start one event
// before a chunk boundary, on it and one after it read the log in place and
// certify it exactly as the batch check does, on every backend (mvto also
// feeds its snapshot store from the same pass).
func TestCombineRunsAtChunkBoundaries(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			h := &cutHooks{cuts: []int{logChunk - 1, logChunk, logChunk + 1}}
			s := listenT(t, Options{Backend: backend, Objects: []string{"x"}, Hooks: h})
			c := dialIn(t, s)
			for i := int64(0); s.LogLen() <= logChunk+2; i++ {
				must(t, c.RunTx(1, func(tx *client.Tx) error {
					_, err := tx.Access("x", spec.OpWrite, spec.Int(i))
					return err
				}))
			}
			finalMatches(t, s)
			h.mu.Lock()
			defer h.mu.Unlock()
			for _, cut := range h.cuts {
				if !slices.Contains(h.starts, cut) {
					t.Errorf("no certification run started at %d (runs started at %v)", cut, h.starts)
				}
			}
		})
	}
}

// finalMatches drains s and checks its final certificate.
func finalMatches(t *testing.T, s *Server) *Final {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	f := s.Final()
	if !f.Batch.OK || !f.Match {
		t.Fatalf("final certificate:\n%s", f.Summary)
	}
	return f
}

// walOfEvents returns the records of a WAL whose log holds exactly m
// events: CREATE(T0), then top-level transactions that each write x once
// (12 events), the last one cut wherever the count runs out — an in-flight
// transaction that recovery finishes informing and aborts.
func walOfEvents(m int) (recs [][]byte, b event.Behavior) {
	recs = [][]byte{event.AppendWalObjectDef(nil, "x", "register")}
	b = event.Behavior{event.NewEvent(event.Create, tname.Root)}
	recs = append(recs, event.AppendWalEvents(nil, b[0]))
	for i := 0; len(b) < m; i++ {
		top, acc := tname.TxID(2*i+1), tname.TxID(2*i+2)
		recs = append(recs,
			event.AppendWalTxDef(nil, tname.Root, fmt.Sprintf("s1.%d", i+1), tname.NoObj, spec.Op{}),
			event.AppendWalTxDef(nil, top, "a1", 0, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(int64(i))}))
		for _, e := range []event.Event{
			event.NewEvent(event.RequestCreate, top),
			event.NewEvent(event.Create, top),
			event.NewEvent(event.RequestCreate, acc),
			event.NewEvent(event.Create, acc),
			event.NewValEvent(event.RequestCommit, acc, spec.OK),
			event.NewEvent(event.Commit, acc),
			event.NewInform(event.InformCommit, acc, 0),
			event.NewValEvent(event.ReportCommit, acc, spec.OK),
			event.NewValEvent(event.RequestCommit, top, spec.OK),
			event.NewEvent(event.Commit, top),
			event.NewInform(event.InformCommit, top, 0),
			event.NewValEvent(event.ReportCommit, top, spec.OK),
		} {
			if len(b) == m {
				break
			}
			recs = append(recs, event.AppendWalEvents(nil, e))
			b = append(b, e)
		}
	}
	return recs, b
}

// TestRecoverChunkBoundaryLogs: a durable prefix of k·logChunk−1, k·logChunk
// and k·logChunk+1 events is installed as chunks, audited, and extended —
// by recovery's repairs and then by a live transaction — across the
// boundary, with the online certificate byte-identical to the batch one.
// Prefixes that end inside the first chunk (510–512, 1021–1023 events) are
// held to the same.
func TestRecoverChunkBoundaryLogs(t *testing.T) {
	sizes := []int{510, 511, 512, 1021, 1022, 1023}
	for _, k := range []int{1, 2} {
		for _, d := range []int{-1, 0, 1} {
			sizes = append(sizes, k*logChunk+d)
		}
	}
	for _, m := range sizes {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			recs, durable := walOfEvents(m)
			disk := NewMemDisk()
			writeRecords(t, disk, 0, recs...)
			s, rep, err := Recover(Options{WAL: disk})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.DurableEvents != m || !rep.AuditOK {
				t.Fatalf("recovered %d durable events (audit ok %v), want %d: %s", rep.DurableEvents, rep.AuditOK, m, rep.Summary())
			}
			if got := s.Log()[:m]; !reflect.DeepEqual(got, durable) {
				t.Fatal("the recovered log's prefix differs from the durable events")
			}
			must(t, s.Start("127.0.0.1:0"))
			c := dialIn(t, s)
			must(t, c.RunTx(1, func(tx *client.Tx) error {
				_, err := tx.Access("x", spec.OpWrite, spec.Int(-1))
				return err
			}))
			f := finalMatches(t, s)
			if f.Events <= rep.StitchedEvents {
				t.Fatalf("log holds %d events after a transaction on the %d recovered", f.Events, rep.StitchedEvents)
			}
		})
	}
}

// TestLogConcurrentAppendsAndVerdicts: four sessions append while a fifth
// asks for VERDICTs, so combiners walk chunks that appenders are filling
// and extending. Run it under -race.
func TestLogConcurrentAppendsAndVerdicts(t *testing.T) {
	const sessions, txs = 4, 150
	s := listenT(t, Options{Objects: []string{"x0", "x1", "x2", "x3", "y"}, LockTimeout: noTimeout})
	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, sessions+1)
	for i := 0; i < sessions; i++ {
		c := dialIn(t, s)
		own := fmt.Sprintf("x%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < txs; j++ {
				err := c.RunTx(1, func(tx *client.Tx) error {
					if _, err := tx.Access("y", spec.OpRead, spec.Nil); err != nil {
						return err
					}
					_, err := tx.Access(own, spec.OpWrite, spec.Int(j))
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("session %s, tx %d: %w", own, j, err)
					return
				}
			}
		}()
	}
	v := dialIn(t, s)
	verdicts := make(chan int, 1)
	go func() {
		n := 0
		for ; !done.Load(); n++ {
			vd, err := v.Verdict()
			if err == nil && (!vd.Acyclic || vd.Certified > vd.Events) {
				err = fmt.Errorf("verdict %+v: want an acyclic one within the log", vd)
			}
			if err != nil {
				errs <- err
				break
			}
		}
		verdicts <- n
	}()
	wg.Wait()
	done.Store(true)
	n := <-verdicts
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	f := finalMatches(t, s)
	if f.Events < 4*logChunk || n == 0 {
		t.Fatalf("%d events and %d verdicts: the log must cross several chunks under VERDICTs", f.Events, n)
	}
}

// TestFinalDetectsDivergedEngine: Final's audit compares the online engine
// with the batch construction, so an engine that was fed a different
// behavior than the log — one event short, or one event over — must fail
// it, and recovery must refuse to serve behind it.
func TestFinalDetectsDivergedEngine(t *testing.T) {
	s := listenT(t, Options{Objects: []string{"x"}})
	c := dialIn(t, s)
	for i := range 2 {
		must(t, c.RunTx(1, func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i)))
			return err
		}))
	}
	must(t, s.Shutdown(context.Background()))
	if f := s.Final(); !f.Batch.OK || !f.Match {
		t.Fatalf("drained server fails its own audit:\n%s", f.Summary)
	}

	b := s.log.snapshot()
	lastTop, firstAccess := -1, -1
	for i, e := range b {
		switch {
		case e.Kind == event.Commit && s.tr.Parent(e.Tx) == tname.Root:
			lastTop = i
		case e.Kind == event.RequestCommit && s.tr.IsAccess(e.Tx) && firstAccess < 0:
			firstAccess = i
		}
	}
	if lastTop < 0 || firstAccess < 0 {
		t.Fatalf("log has no top-level COMMIT or no access:\n%v", b)
	}
	// Without the last top-level COMMIT, its write never becomes visible,
	// so the engine lacks the conflict edge into that top. A second copy of
	// the first write, appended after the second, adds the reverse edge.
	dropped := slices.Delete(slices.Clone(b), lastTop, lastTop+1)
	duplicated := append(slices.Clone(b), b[firstAccess])
	refeed := func(evs event.Behavior) {
		s.cert.mu.Lock()
		defer s.cert.mu.Unlock()
		s.cert.inc.Reset()
		for _, e := range evs {
			s.cert.inc.Append(e)
		}
	}
	for _, tc := range []struct {
		name string
		feed event.Behavior
	}{
		{"dropped top-level COMMIT", dropped},
		{"duplicated REQUEST_COMMIT", duplicated},
	} {
		refeed(tc.feed)
		f := s.Final()
		if !f.Batch.OK {
			t.Fatalf("%s: the log itself fails the batch check:\n%s", tc.name, f.Summary)
		}
		if f.Match || !strings.Contains(f.Summary, "MISMATCH") {
			t.Fatalf("%s: audit passes a diverged engine (Match = %v):\n%s", tc.name, f.Match, f.Summary)
		}
	}

	refeed(dropped)
	rep := &RecoveryReport{}
	if err := s.primeCertifier(rep); err == nil || !strings.Contains(err.Error(), "online snapshot differs") || rep.AuditOK {
		t.Fatalf("primeCertifier on a diverged engine: %v (AuditOK = %v), want an online snapshot mismatch", err, rep.AuditOK)
	}
}
