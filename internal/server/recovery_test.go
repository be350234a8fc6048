package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// recoverAndStart recovers a durable server from disk and starts it on a
// loopback port.
func recoverAndStart(t *testing.T, opts server.Options) (*server.Server, *server.RecoveryReport) {
	t.Helper()
	opts.LockTimeout = 2 * time.Second
	s, rep, err := server.Recover(opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s, rep
}

func dialT(t *testing.T, s *server.Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

// TestRecoverFreshThenResume: a durable server is started on an empty
// disk, runs transactions, shuts down cleanly, and is recovered — the
// recovered log must be byte-identical to the log at shutdown, the batch
// check must pass, and the server must keep working (with fresh session
// labels) afterwards.
func TestRecoverFreshThenResume(t *testing.T) {
	disk := server.NewMemDisk()
	opts := server.Options{WAL: disk, Objects: []string{"x", "y"}}
	s1, rep1 := recoverAndStart(t, opts)
	if rep1.DurableEvents != 0 || rep1.StitchedEvents != 1 {
		t.Fatalf("fresh report: %+v", rep1)
	}

	// runThree runs the same three transactions on s and returns its trace
	// after a clean shutdown.
	runThree := func(s *server.Server) []byte {
		t.Helper()
		c := dialT(t, s)
		for i := 0; i < 3; i++ {
			if err := c.RunTx(5, func(tx *client.Tx) error {
				if _, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i))); err != nil {
					return err
				}
				_, err := tx.Access("y", spec.OpRead, spec.Nil)
				return err
			}); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
		c.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		return event.MarshalBinaryTrace(s.Tree(), s.Log())
	}
	wantTrace := runThree(s1)
	if err := s1.WALError(); err != nil {
		t.Fatalf("wal error: %v", err)
	}
	wantLog := s1.Log()

	// New and Recover build servers through one path: the same Options
	// minus the WAL give the same trace.
	volatile := opts
	volatile.WAL = nil
	volatile.LockTimeout = 2 * time.Second
	s0 := server.New(volatile)
	if err := s0.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := runThree(s0); !bytes.Equal(got, wantTrace) {
		t.Fatal("a New server's trace differs from the fresh Recover server's")
	}

	s2, rep2 := recoverAndStart(t, opts)
	if rep2.DurableEvents != len(wantLog) || rep2.OrphanTops != 0 || rep2.FixupInforms != 0 {
		t.Fatalf("resume report: %+v (want %d durable events, no repairs)", rep2, len(wantLog))
	}
	if !rep2.AuditOK {
		t.Fatalf("resume audit not ok: %+v", rep2)
	}
	gotTrace := event.MarshalBinaryTrace(s2.Tree(), s2.Log())
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("recovered trace differs from pre-shutdown trace")
	}

	// The recovered server keeps serving, and new tops don't collide with
	// recovered session labels.
	c2 := dialT(t, s2)
	name, err := c2.Begin()
	if err != nil {
		t.Fatalf("begin after recovery: %v", err)
	}
	if name != "s2.1" {
		t.Fatalf("first post-recovery top is %q, want s2.1 (session seq bumped past recovered s1)", name)
	}
	if _, err := c2.Access("x", spec.OpWrite, spec.Int(99)); err != nil {
		t.Fatalf("access after recovery: %v", err)
	}
	if _, err := c2.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	c2.Close()
	f := shutdownAndVerify(t, s2)
	if f.Events <= len(wantLog) {
		t.Fatalf("recovered server appended nothing: %d <= %d", f.Events, len(wantLog))
	}
}

// TestRecoverAfterCrashAbortsOrphans: a session is mid-transaction when
// the process dies. Recovery must abort the orphaned top, deliver it to
// the touched objects, and produce a certificate byte-identical to a
// batch core.Check of the stitched log — after which the once-locked
// object is writable again.
func TestRecoverAfterCrashAbortsOrphans(t *testing.T) {
	disk := server.NewMemDisk()
	opts := server.Options{WAL: disk, Objects: []string{"x"}}
	s1, _ := recoverAndStart(t, opts)

	// Session 1 parks a transaction holding the write lock on x.
	c1 := dialT(t, s1)
	if _, err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Session 2 commits a transaction on another object; its top-level
	// completion fsyncs the whole WAL, making session 1's in-flight
	// events durable.
	c2 := dialT(t, s1)
	if err := c2.RunTx(5, func(tx *client.Tx) error {
		_, err := tx.Access("y", spec.OpWrite, spec.Int(2))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Crash: freeze the disk at the durability boundary, then kill.
	crashDisk := disk.Crash(0)
	disk.Freeze()
	s1.Kill()
	c1.Close()
	c2.Close()

	opts.WAL = crashDisk
	s2, rep := recoverAndStart(t, opts)
	if rep.OrphanTops != 1 {
		t.Fatalf("OrphanTops = %d, want 1 (report: %s)", rep.OrphanTops, rep.Summary())
	}
	if !rep.AuditOK {
		t.Fatalf("audit failed: %s", rep.Summary())
	}

	// The certificate over the stitched log is byte-identical to batch.
	res := core.Check(s2.Tree(), s2.Log())
	if !res.OK {
		t.Fatalf("stitched log fails batch check: %s", res.Summary(s2.Tree()))
	}

	// Recovery repairs the orphan with the events a dropped connection
	// logs: session 1 again, on a second server, disconnecting instead of
	// crashing.
	stitched := s2.Log()[rep.DurableEvents:rep.StitchedEvents]
	s3, _ := recoverAndStart(t, server.Options{WAL: server.NewMemDisk(), Objects: []string{"x"}})
	c4 := dialT(t, s3)
	if _, err := c4.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatal(err)
	}
	before := s3.LogLen()
	c4.Close()
	if err := s3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	dropped := s3.Log()[before:]
	if len(stitched) != len(dropped) {
		t.Fatalf("recovery stitched %d events for the orphan, a disconnect logs %d:\n%s\n%s",
			len(stitched), len(dropped), stitched.Format(s2.Tree()), dropped.Format(s3.Tree()))
	}
	for i := range stitched {
		if got, want := stitched[i].Format(s2.Tree()), dropped[i].Format(s3.Tree()); got != want {
			t.Fatalf("stitched event %d is %s, a disconnect logs %s", i, got, want)
		}
	}

	// The orphan's write lock on x must be gone: a new transaction can
	// write x immediately.
	c3 := dialT(t, s2)
	if err := c3.RunTx(1, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(3))
		return err
	}); err != nil {
		t.Fatalf("x still locked by the dead orphan: %v", err)
	}
	c3.Close()
	f := shutdownAndVerify(t, s2)
	if f.Aborts == 0 {
		t.Fatal("stitched log records no abort for the orphan")
	}
}

// TestRecoverCrashTornTail: unsynced WAL bytes partially survive the
// crash (a torn write). They exist only between a sync's write and its
// fsync, so the test holds a commit's sync there, with a transaction's
// events and names in its write. Recovery must truncate the torn suffix
// and serve from the valid prefix for every possible tear point.
func TestRecoverCrashTornTail(t *testing.T) {
	disk := newGatedDisk()
	opts := server.Options{WAL: disk, Objects: []string{"x"}}
	s1, _ := recoverAndStart(t, opts)

	c := dialT(t, s1)
	if err := c.RunTx(5, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(7))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("x", spec.OpRead, spec.Nil); err != nil {
		t.Fatal(err)
	}
	g := disk.hold()
	committed := make(chan error, 1)
	go func() {
		_, err := c.Commit()
		committed <- err
	}()
	<-g.entered

	unsynced := disk.UnsyncedBytes()
	if unsynced == 0 {
		t.Fatal("nothing is unsynced with a sync held after its write: every tear point below would be the clean crash")
	}
	crashes := make([]*server.MemDisk, 0, unsynced+1)
	for keep := 0; keep <= unsynced; keep++ {
		crashes = append(crashes, disk.Crash(keep))
	}
	disk.Freeze()
	close(g.release)
	<-committed // the frozen disk drops the fsync: whatever the answer, it is not in any crash image
	s1.Kill()
	c.Close()

	for keep, crashDisk := range crashes {
		s2, rep, err := server.Recover(server.Options{WAL: crashDisk, Objects: []string{"x"}})
		if err != nil {
			t.Fatalf("keep=%d: Recover: %v", keep, err)
		}
		if !rep.AuditOK {
			t.Fatalf("keep=%d: audit failed: %s", keep, rep.Summary())
		}
		res := core.Check(s2.Tree(), s2.Log())
		if !res.OK {
			t.Fatalf("keep=%d: stitched log fails batch check", keep)
		}
		s2.Kill() // no connections; just stop the certifier and writer
	}
}

// BenchmarkE18Recover measures the cost of a full WAL recovery — scan,
// replay through the automata, stitch, and the batch-vs-incremental
// certificate audit — on a cleanly shut-down log (E18's "recovery time").
// The disk is frozen before the loop, so every iteration recovers the same
// image: the segment each recovery opens is never added to it.
func BenchmarkE18Recover(b *testing.B) {
	disk := server.NewMemDisk()
	opts := server.Options{WAL: disk, Objects: []string{"x", "y", "z"}, LockTimeout: 2 * time.Second}
	s1, _, err := server.Recover(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s1.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	c, err := client.Dial(s1.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.RunTx(5, func(tx *client.Tx) error {
			if _, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i))); err != nil {
				return err
			}
			_, err := tx.Access("y", spec.OpRead, spec.Nil)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	c.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	events := len(s1.Log())
	disk.Freeze()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rep, err := server.Recover(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AuditOK || rep.DurableEvents != events {
			b.Fatalf("recovery diverged: %+v (want %d events)", rep, events)
		}
		s.Kill()
	}
	b.ReportMetric(float64(events), "events")
}

// drainedYoungServer returns a drained server the size of one life of the
// benchmark's young workload: 2 sessions, 250 transactions of its shape
// over 256 registers, each access a read or a write with even odds. Its
// log is frozen, so every Final audits the same events.
func drainedYoungServer(tb testing.TB) *server.Server {
	tb.Helper()
	s := server.New(server.Options{Objects: youngObjects()})
	youngLife(tb, s)
	return s
}

// youngRecoveryOptions returns the options of a durable server, on a frozen
// MemDisk that holds one young life (drainedYoungServer's traffic), whose
// every Recover reads the same WAL.
func youngRecoveryOptions(tb testing.TB) server.Options {
	tb.Helper()
	disk := server.NewMemDisk()
	opts := server.Options{WAL: disk, Objects: youngObjects()}
	s, _, err := server.Recover(opts)
	if err != nil {
		tb.Fatal(err)
	}
	youngLife(tb, s)
	disk.Freeze()
	return opts
}

// youngObjects are the 256 registers of a young life.
func youngObjects() []string {
	objs := make([]string, 256)
	for i := range objs {
		objs[i] = fmt.Sprintf("x%d", i)
	}
	return objs
}

// youngLife runs one young life's traffic on s over in-memory pipes and
// drains it.
func youngLife(tb testing.TB, s *server.Server) {
	tb.Helper()
	objs := youngObjects()
	var conns [2]*client.Conn
	for i := range conns {
		srvEnd, cliEnd := net.Pipe()
		s.ServeConn(srvEnd)
		conns[i] = client.NewConn(cliEnd)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 250; n++ {
		var on [4]string
		var read [4]bool
		for i := range on {
			on[i], read[i] = objs[rng.Intn(len(objs))], rng.Intn(2) == 0
		}
		if err := conns[n%2].RunTx(1, shapedTxOn(on, func(i int) bool { return read[i] })); err != nil {
			tb.Fatal(err)
		}
	}
	for _, c := range conns {
		c.Close()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if f := s.Final(); !f.Batch.OK || !f.Match {
		tb.Fatalf("drained server fails its audit:\n%s", f.Summary)
	}
}

// BenchmarkServerRecover measures a whole recovery — scan, replay, stitch,
// priming and the audit — of one young life's WAL (youngRecoveryOptions).
func BenchmarkServerRecover(b *testing.B) {
	opts := youngRecoveryOptions(b)
	var events int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rep, err := server.Recover(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AuditOK || rep.OrphanTops != 0 || rep.FixupInforms != 0 {
			b.Fatalf("recovery of a drained life repaired or failed: %s", rep.Summary())
		}
		events = rep.DurableEvents
		s.Kill()
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkServerFinal measures the end-of-life audit — a batch core.Check
// of the log, read in place, and its record-for-record comparison with the
// online engine — on drainedYoungServer.
func BenchmarkServerFinal(b *testing.B) {
	s := drainedYoungServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Final(); !f.Match {
			b.Fatalf("audit diverged:\n%s", f.Summary)
		}
	}
	b.ReportMetric(float64(s.LogLen()), "events")
}

// TestRecoverKeepsEveryAckedCommit checks acknowledged commits against the
// recovered log from outside: concurrent sessions on two processors intern
// fresh names — every BEGIN, CHILD and ACCESS defines one — and commit. A
// definition record that reached the WAL after an event using its name
// would make Recover meet an event record it cannot resolve in the middle
// of fsynced bytes, take it for a torn tail and cut the log there. Every
// life must give back each acknowledged commit, with nothing truncated.
func TestRecoverKeepsEveryAckedCommit(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		lives    = 40
		sessions = 4
		txPerSes = 25
	)
	for life := 0; life < lives; life++ {
		disk := server.NewMemDisk()
		opts := server.Options{WAL: disk}
		s, _ := recoverAndStart(t, opts)
		acked := make([][]uint64, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			c := dialT(t, s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				obj := fmt.Sprintf("o%d", i) // private object: no lock waits, no aborts
				for n := 0; n < txPerSes; n++ {
					if _, err := c.Begin(); err != nil {
						t.Errorf("life %d session %d: begin: %v", life, i, err)
						return
					}
					if _, err := c.Child(); err != nil {
						t.Errorf("life %d session %d: child: %v", life, i, err)
						return
					}
					if _, err := c.Access(obj, spec.OpWrite, spec.Int(int64(n))); err != nil {
						t.Errorf("life %d session %d: access: %v", life, i, err)
						return
					}
					if _, err := c.Commit(); err != nil {
						t.Errorf("life %d session %d: child commit: %v", life, i, err)
						return
					}
					seq, err := c.Commit()
					if err != nil {
						t.Errorf("life %d session %d: commit: %v", life, i, err)
						return
					}
					acked[i] = append(acked[i], seq)
				}
			}()
		}
		wg.Wait()
		s.Kill()
		if t.Failed() {
			return
		}

		s2, rep, err := server.Recover(opts)
		if err != nil {
			t.Fatalf("life %d: Recover: %v", life, err)
		}
		log := s2.Log()
		s2.Kill()
		if rep.TornBytes != 0 {
			t.Fatalf("life %d: recovery cut %d bytes out of a WAL no crash tore: %s", life, rep.TornBytes, rep.Summary())
		}
		for i, seqs := range acked {
			for _, seq := range seqs {
				if int(seq) >= len(log) || log[seq].Kind != event.Commit {
					t.Fatalf("life %d session %d: acknowledged commit at log index %d is missing from the recovered log (%d events): %s",
						life, i, seq, len(log), rep.Summary())
				}
			}
		}
	}
}
