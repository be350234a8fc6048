package server_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// gatedDisk wraps a MemDisk, counts the fsyncs that actually reach it, and
// can hold every fsync at a gate: the group-commit tests park the first
// committer inside its fsync, let the rest of the cohort pile up behind it,
// and only then release — so the coalescing they assert is deterministic,
// not a race the test happens to win.
type gatedDisk struct {
	*server.MemDisk
	syncs atomic.Int64 // fsyncs that reached the backing MemDisk
	gate  atomic.Pointer[syncGate]
}

// syncGate is one armed gate: the first fsync to hit it closes entered,
// every fsync blocks until release is closed, and err (when set) is
// returned instead of syncing — the disk "dies" mid-group.
type syncGate struct {
	enterOnce sync.Once
	entered   chan struct{}
	release   chan struct{}
	err       error
}

func newGatedDisk() *gatedDisk { return &gatedDisk{MemDisk: server.NewMemDisk()} }

func (d *gatedDisk) arm(err error) *syncGate {
	g := &syncGate{entered: make(chan struct{}), release: make(chan struct{}), err: err}
	d.gate.Store(g)
	return g
}

func (d *gatedDisk) Create(name string) (server.SegmentFile, error) {
	f, err := d.MemDisk.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{d: d, f: f}, nil
}

type gatedFile struct {
	d *gatedDisk
	f server.SegmentFile
}

func (f *gatedFile) Write(p []byte) (int, error) { return f.f.Write(p) }
func (f *gatedFile) Close() error                { return f.f.Close() }

func (f *gatedFile) Sync() error {
	if g := f.d.gate.Load(); g != nil {
		g.enterOnce.Do(func() { close(g.entered) })
		<-g.release
		if g.err != nil {
			return g.err
		}
	}
	f.d.syncs.Add(1)
	return f.f.Sync()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitCoalescesFsyncs: 8 concurrent top-level commits must
// share fsyncs instead of issuing one each. The first committer parks
// inside the gated fsync, which covers its own records; the other 7 arrive
// and queue behind it; releasing the gate must drain all 8 with exactly
// two fsyncs — the first committer's own and one covering the whole
// remaining cohort.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	disk := newGatedDisk()
	const n = 8
	objs := make([]string, n)
	for i := range objs {
		objs[i] = fmt.Sprintf("x%d", i)
	}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})

	conns := make([]*client.Conn, n)
	for i := range conns {
		conns[i] = dialT(t, s)
		if _, err := conns[i].Begin(); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if _, err := conns[i].Access(objs[i], spec.OpWrite, spec.Int(1)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}

	m := s.Metrics()
	baseSyncs := disk.syncs.Load()
	baseReq := m.WALSyncRequests.Load()
	baseWALSyncs := m.WALSyncs.Load()
	baseArrived := s.GroupArrived()

	g := disk.arm(nil)
	errs := make(chan error, n)
	for _, c := range conns {
		go func(c *client.Conn) {
			_, err := c.Commit()
			errs <- err
		}(c)
	}
	// The first committer is parked inside the gated fsync; wait until the
	// whole cohort has entered the sync before letting it through.
	<-g.entered
	waitFor(t, "cohort arrival", func() bool { return s.GroupArrived() >= baseArrived+n })
	close(g.release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("commit: %v", err)
		}
	}

	fsyncs := disk.syncs.Load() - baseSyncs
	if fsyncs >= n {
		t.Fatalf("no coalescing: %d fsyncs for %d commits (want < %d)", fsyncs, n, n)
	}
	// Deterministically: the first fsync serves its own committer, the
	// next serves the remaining 7.
	if fsyncs != 2 {
		t.Fatalf("got %d fsyncs for %d gated commits, want exactly 2", fsyncs, n)
	}
	if got := m.WALSyncRequests.Load() - baseReq; got != n {
		t.Fatalf("WALSyncRequests delta = %d, want %d", got, n)
	}
	if got := m.WALSyncs.Load() - baseWALSyncs; got != fsyncs {
		t.Fatalf("WALSyncs metric = %d, disk counted %d", got, fsyncs)
	}
	if mean := m.GroupSize.MeanVal(); mean < 2 {
		t.Fatalf("GroupSize mean = %.2f, want >= 2 (cohorts of 1 and 7)", mean)
	}
	for _, c := range conns {
		c.Close()
	}
	shutdownAndVerify(t, s)
}

// TestGroupCommitAckOrdering: a commit must not be acknowledged while the
// fsync covering its records is still outstanding — the ack would promise
// durability the disk has not delivered yet.
func TestGroupCommitAckOrdering(t *testing.T) {
	disk := newGatedDisk()
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x"}})
	c := dialT(t, s)
	if _, err := c.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
		t.Fatalf("access: %v", err)
	}

	g := disk.arm(nil)
	done := make(chan error, 1)
	go func() {
		_, err := c.Commit()
		done <- err
	}()
	<-g.entered
	// The fsync is parked at the gate; the ack must not arrive.
	for i := 0; i < 20; i++ {
		select {
		case err := <-done:
			t.Fatalf("commit acked while its fsync was outstanding (err=%v)", err)
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("commit after fsync returned: %v", err)
	}
	c.Close()
	shutdownAndVerify(t, s)
}

// TestWALSyncSkipsCoveredRecords: a sync whose records an earlier fsync
// already covered returns without one. After a commit's fsync, a second
// sync with nothing appended since is counted as a request and issues no
// fsync; the next commit fsyncs again.
func TestWALSyncSkipsCoveredRecords(t *testing.T) {
	disk := newGatedDisk()
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x"}})
	c := dialT(t, s)
	commit := func(v int64) {
		t.Helper()
		if err := c.RunTx(1, func(tx *client.Tx) error {
			_, err := tx.Access("x", spec.OpWrite, spec.Int(v))
			return err
		}); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	m := s.Metrics()
	commit(1)
	syncs, req, walSyncs := disk.syncs.Load(), m.WALSyncRequests.Load(), m.WALSyncs.Load()
	if err := s.WALSync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := disk.syncs.Load() - syncs; got != 0 {
		t.Fatalf("a sync with every record durable issued %d fsyncs, want 0", got)
	}
	if got := m.WALSyncs.Load() - walSyncs; got != 0 {
		t.Fatalf("WALSyncs grew by %d for a covered sync", got)
	}
	if got := m.WALSyncRequests.Load() - req; got != 1 {
		t.Fatalf("WALSyncRequests grew by %d, want 1", got)
	}
	commit(2)
	if got := disk.syncs.Load() - syncs; got != 1 {
		t.Fatalf("the next commit issued %d fsyncs, want 1", got)
	}
	c.Close()
	shutdownAndVerify(t, s)
}

// TestCrashMidGroupRefusesLostCohort: a crash that lands while a whole
// cohort is parked on one fsync must lose the cohort cleanly — no member
// is acked StatusOK, and recovery from the crash image reports every
// member as an orphaned (hence aborted) top while keeping the commits that
// were durable before the group formed.
func TestCrashMidGroupRefusesLostCohort(t *testing.T) {
	disk := newGatedDisk()
	const n = 4
	objs := []string{"seed"}
	for i := 0; i < n; i++ {
		objs = append(objs, fmt.Sprintf("x%d", i))
	}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})

	cohort := make([]*client.Conn, n)
	for i := range cohort {
		cohort[i] = dialT(t, s)
		if _, err := cohort[i].Begin(); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if _, err := cohort[i].Access(objs[i+1], spec.OpWrite, spec.Int(1)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	// An unrelated committed transaction fsyncs the segment, making the
	// cohort's BEGIN/ACCESS records part of the synced prefix — so the
	// crash image contains the cohort's definitions but not its commits.
	seed := dialT(t, s)
	if err := seed.RunTx(1, func(tx *client.Tx) error {
		_, err := tx.Access("seed", spec.OpWrite, spec.Int(7))
		return err
	}); err != nil {
		t.Fatalf("seed commit: %v", err)
	}

	baseArrived := s.GroupArrived()
	g := disk.arm(errInjected) // released fsyncs fail: the disk died mid-group
	errs := make(chan error, n)
	for _, c := range cohort {
		go func(c *client.Conn) {
			_, err := c.Commit()
			errs <- err
		}(c)
	}
	<-g.entered
	waitFor(t, "cohort arrival", func() bool { return s.GroupArrived() >= baseArrived+n })

	// Snapshot the disk at the crash point: the cohort's COMMIT records
	// are appended but unsynced, so Crash(0) drops them.
	crashed := disk.Crash(0)
	close(g.release)
	for i := 0; i < n; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("a cohort member was acked StatusOK although its fsync failed")
		}
		if !strings.Contains(err.Error(), "not durable") {
			t.Fatalf("cohort member error = %v, want a commit-not-durable refusal", err)
		}
	}
	seed.Close()
	s.Kill()

	s2, rep := recoverAndStart(t, server.Options{WAL: crashed, Objects: objs})
	if rep.OrphanTops != n {
		t.Fatalf("recovery found %d orphan tops, want the whole lost cohort (%d)", rep.OrphanTops, n)
	}
	if got := s2.Metrics().TopCommits.Load(); got != 1 {
		t.Fatalf("recovered TopCommits = %d, want 1 (only the seed commit was durable)", got)
	}
	// The recovered server keeps working.
	c2 := dialT(t, s2)
	if err := c2.RunTx(1, func(tx *client.Tx) error {
		_, err := tx.Access("seed", spec.OpWrite, spec.Int(8))
		return err
	}); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	c2.Close()
	shutdownAndVerify(t, s2)
}
