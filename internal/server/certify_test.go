package server_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/locking"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// dial opens one client session on s, closed with the test.
func dial(t *testing.T, s *server.Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stepper returns a check that fails t on a client call's error.
func stepper(t *testing.T) func(any, error) {
	return func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBrokenProtocolTopCommitRefused drives a protocol that ignores read
// locks into a non-serializable history through the live server: T1 reads
// x, T2 reads y, T1 writes y and commits, then T2 writes x inside a
// subtransaction. The sub-commit is answered OK — its report goes only to
// T2 — and T2's top-level COMMIT, which makes both visible to T0 and
// closes the cycle T1 → T2 → T1 in SG(β), is refused.
func TestBrokenProtocolTopCommitRefused(t *testing.T) {
	s := startServer(t, server.Options{
		Protocol: locking.BrokenProtocol{Mode: locking.IgnoreReadLocks},
		Objects:  []string{"x", "y"},
	})
	a, b := dial(t, s), dial(t, s)
	step := stepper(t)

	step(a.Begin())
	step(a.Access("x", spec.OpRead, spec.Nil))
	step(b.Begin())
	step(b.Access("y", spec.OpRead, spec.Nil))
	step(a.Access("y", spec.OpWrite, spec.Int(1)))
	step(a.Commit())

	step(b.Child())
	step(b.Access("x", spec.OpWrite, spec.Int(2)))
	if _, err := b.Commit(); err != nil {
		t.Fatalf("sub-commit: %v", err)
	}
	_, err := b.Commit()
	if err == nil || !strings.Contains(err.Error(), "SG(β) acquired a cycle") {
		t.Fatalf("top-level COMMIT closing the cycle: err = %v, want the cycle certificate", err)
	}
	if n := s.Metrics().Uncertified.Load(); n != 1 {
		t.Fatalf("Uncertified = %d, want 1", n)
	}
	if v, err := a.Verdict(); err != nil || v.Acyclic || v.Certified != v.Events {
		t.Fatalf("verdict %+v (err %v), want a cyclic verdict over the whole log", v, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	f := s.Final()
	if f.Batch.OK {
		t.Fatal("batch check accepted the cyclic log")
	}
	if !f.Match {
		t.Fatal("online snapshot is not byte-identical to the batch SG")
	}
}

// stallHooks is the real-time hook set with a certifier that blocks at
// CertApply until gate closes, signalling entered the first time.
type stallHooks struct {
	recordingHooks
	gate    chan struct{}
	entered chan struct{}
	once    atomic.Bool
}

func (h *stallHooks) CertApply(_, max int) int {
	if h.once.CompareAndSwap(false, true) {
		close(h.entered)
	}
	<-h.gate
	return max
}

// answered runs f in the background and reports its error on the channel.
func answered(f func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	return ch
}

// TestSubCommitAnswersWhileCertifierStalled: a sub-commit never waits for
// certification, so it is answered while the certifier is stalled; the
// top-level COMMIT is held until the stall lifts. A metrics scrape never
// waits behind the stalled combiner either.
func TestSubCommitAnswersWhileCertifierStalled(t *testing.T) {
	h := &stallHooks{gate: make(chan struct{}), entered: make(chan struct{})}
	s := startServer(t, server.Options{Objects: []string{"x"}, Hooks: h})
	c := dial(t, s)
	step := stepper(t)

	step(c.Begin())
	step(c.Child())
	step(c.Access("x", spec.OpWrite, spec.Int(1)))
	select {
	case err := <-answered(func() error { _, err := c.Commit(); return err }):
		if err != nil {
			t.Fatalf("sub-commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sub-commit waited on the stalled certifier")
	}

	top := answered(func() error { _, err := c.Commit(); return err })
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("top-level COMMIT never reached the certifier")
	}
	select {
	case err := <-top:
		t.Fatalf("top-level COMMIT answered (err %v) while the certifier was stalled", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := s.MetricsSnapshot()["certified"]; got != 0 {
		t.Fatalf("certified = %v while stalled, want 0", got)
	}
	close(h.gate)
	if err := <-top; err != nil {
		t.Fatalf("top-level COMMIT after the stall lifted: %v", err)
	}
	shutdownAndVerify(t, s)
}

// TestSnapshotSeesAckedCommit: on mvto the certifier publishes snapshot
// versions in the pass that certifies them, so once session A's top-level
// commit of x is acknowledged, every read-only BEGIN that follows — on any
// session — reads it. When a separate tailer goroutine published versions
// behind the log, a cut pinned right after the ack could predate the
// commit whenever the tailer lagged; that was a race, so it failed only
// sometimes, and this test repeats the pattern to give it many chances.
func TestSnapshotSeesAckedCommit(t *testing.T) {
	s := startServer(t, server.Options{Backend: "mvto", Objects: []string{"x"}})
	a, b := dial(t, s), dial(t, s)
	step := stepper(t)
	for i := int64(1); i <= 200; i++ {
		step(a.Begin())
		step(a.Access("x", spec.OpWrite, spec.Int(i)))
		step(a.Commit())
		if _, v := roReadValue(t, b, "x"); v != spec.Int(i) {
			t.Fatalf("iteration %d: read-only BEGIN after the ack read x=%s", i, v)
		}
	}
	shutdownAndVerify(t, s)
}

// TestSnapshotNeverAheadOfDisk: a VERDICT certifies the whole log, COMMITs
// whose group-commit fsync is still in flight included, but a read-only
// BEGIN's cut stops at the prefix the last fsync made durable. Client A's
// commit of x=7 is held inside its fsync; a VERDICT certifies it; client
// B's snapshot must still read x=0, which every recovered history agrees
// with, and read 7 once A's fsync completes and A is acknowledged.
func TestSnapshotNeverAheadOfDisk(t *testing.T) {
	disk := newGatedDisk()
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Backend: "mvto", Objects: []string{"x"}})
	a, v, b := dial(t, s), dial(t, s), dial(t, s)
	step := stepper(t)
	step(a.Begin())
	step(a.Access("x", spec.OpWrite, spec.Int(7)))
	g := disk.hold()
	acked := make(chan error, 1)
	go func() {
		_, err := a.Commit()
		acked <- err
	}()
	<-g.entered
	vd, err := v.Verdict()
	if err != nil || !vd.Acyclic || vd.Certified != vd.Events {
		t.Fatalf("VERDICT %+v (err %v): want the whole log certified acyclic", vd, err)
	}
	if _, got := roReadValue(t, b, "x"); got != spec.Int(0) {
		t.Fatalf("read-only BEGIN during the held fsync read x=%s, want 0", got)
	}
	image, err := disk.durableImage()
	if err != nil {
		t.Fatal(err)
	}
	for label := range durableCommits(t, image) {
		t.Fatalf("setup: top-level %s is already durable", label)
	}
	close(g.release)
	if err := <-acked; err != nil {
		t.Fatalf("COMMIT after the fsync: %v", err)
	}
	expectSnapshot(t, b, "x", spec.Int(7))
	shutdownAndVerify(t, s)
}

// TestFinalAfterKillCertifiesTail: Kill runs no final certification, so
// the events after the last top-level commit — here an open transaction's
// — are still uncertified when it returns; Final must certify them before
// it compares the online snapshot with the batch check.
func TestFinalAfterKillCertifiesTail(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c := dial(t, s)
	step := stepper(t)
	step(c.Begin())
	step(c.Access("x", spec.OpWrite, spec.Int(1)))
	step(c.Commit())
	step(c.Begin())
	step(c.Access("x", spec.OpRead, spec.Nil))
	s.Kill()
	f := s.Final()
	if !f.Batch.OK || !f.Match {
		t.Fatalf("Final after Kill:\n%s", f.Summary)
	}
}
