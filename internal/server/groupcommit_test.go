package server_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
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

// cohortDisk is a Disk the gated cohort tests can hold at an fsync gate,
// count the fsyncs of, and take the durable image of.
type cohortDisk interface {
	server.Disk
	hold() *syncGate
	fsyncs() int64
	durableImage() (*server.MemDisk, error)
}

func (d *gatedDisk) hold() *syncGate                        { return d.arm(nil) }
func (d *gatedDisk) fsyncs() int64                          { return d.syncs.Load() }
func (d *gatedDisk) durableImage() (*server.MemDisk, error) { return d.Crash(0), nil }

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

// TestGroupCommitCoalescesFsyncs: 8 top-level commits held on one gated
// fsync share fsyncs instead of issuing one each, and no member is acked
// before an fsync that covers its COMMIT has completed.
//
//   - cohort: all 8 tops are open when the first committer leads, so it
//     may settle and take some of the others into its fsync. Whatever it
//     took, the rest arrive while that fsync is held, and one more fsync
//     covers them all: 1 or 2 fsyncs for the 8.
//   - arriving mid-fsync: the first committer is alone, so it fsyncs at
//     once and parks at the gate covering only its own COMMIT; the other
//     7 open, commit and queue while that fsync is in flight, and the next
//     fsync covers all 7: exactly 2.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	const n = 8
	t.Run("cohort", func(t *testing.T) { gatedCohort(t, newGatedDisk(), n, n, nil) })
	t.Run("arriving_mid_fsync", func(t *testing.T) { gatedCohort(t, newGatedDisk(), n, 1, nil) })
}

// gatedCohort runs n committers on n connections with the first fsync
// held at a gate. open of them (the first committer among them) have their
// tops open when the gate is armed; the rest begin only once the first
// committer's fsync has entered the gate. Every commit must be acked only
// after the gate opens, with its COMMIT in the disk's durable image at the
// moment of its ack, and the cohort must drain in at most two fsyncs —
// exactly two when the first committer was alone — whose recorded cohort
// sizes count every committer once. check, when set, runs once every
// commit is acked, before the server shuts down.
func gatedCohort(t *testing.T, disk cohortDisk, n, open int, check func()) {
	objs := make([]string, n)
	for i := range objs {
		objs[i] = fmt.Sprintf("x%d", i)
	}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
	// One commit before the cohort: with boot's fsync, two fsyncs have been
	// timed, so the first committer may settle.
	warm := dialT(t, s)
	commitOne(t, warm, objs[0], 0)
	warm.Close()
	conns := make([]*client.Conn, n)
	labels := make([]string, n)
	begin := func(i int) {
		conns[i] = dialT(t, s)
		var err error
		if labels[i], err = conns[i].Begin(); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if _, err := conns[i].Access(objs[i], spec.OpWrite, spec.Int(1)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	for i := 0; i < open; i++ {
		begin(i)
	}

	m := s.Metrics()
	baseSyncs := disk.fsyncs()
	baseReq := m.WALSyncRequests.Load()
	baseWALSyncs := m.WALSyncs.Load()
	baseGroups, baseMembers := m.GroupSize.Count(), cohortMembers(m)
	baseArrived, basePending := s.GroupArrived(), s.GroupPending()

	g := disk.hold()
	// The commits run on goroutines of their own. On every exit path they
	// end before the test does: the gate opens, the server kills their
	// sessions, and the test waits for them, so nothing they touch is gone
	// and no failure of theirs lands on a finished test.
	var running sync.WaitGroup
	released := false
	t.Cleanup(func() {
		if !released {
			close(g.release)
		}
		s.Kill()
		running.Wait()
	})
	type ack struct {
		i        int
		err      error
		image    *server.MemDisk // the durable image when the ack arrived
		imageErr error
	}
	acks := make(chan ack, n)
	commit := func(i int) {
		running.Add(1)
		go func() {
			defer running.Done()
			_, err := conns[i].Commit()
			image, imageErr := disk.durableImage()
			acks <- ack{i, err, image, imageErr}
		}()
	}
	for i := 0; i < open; i++ {
		commit(i)
	}
	<-g.entered
	for i := open; i < n; i++ {
		begin(i)
		commit(i)
	}
	waitFor(t, "cohort arrival", func() bool { return s.GroupArrived() >= baseArrived+uint64(n) })
	select {
	case a := <-acks:
		t.Fatalf("commit %d acked (err=%v) while the first fsync was held", a.i, a.err)
	default:
	}
	close(g.release)
	released = true
	for k := 0; k < n; k++ {
		a := <-acks
		if a.err != nil {
			t.Errorf("commit %d: %v", a.i, a.err)
		} else if a.imageErr != nil {
			t.Errorf("commit %d: durable image: %v", a.i, a.imageErr)
		} else if !durableCommits(t, a.image)[labels[a.i]] {
			t.Errorf("commit %d (%s) was acked before its COMMIT was durable", a.i, labels[a.i])
		}
	}
	if t.Failed() {
		return
	}

	fsyncs := disk.fsyncs() - baseSyncs
	want := "1 or 2"
	if open == 1 {
		want = "exactly 2"
	}
	if fsyncs < 1 || fsyncs > 2 || open == 1 && fsyncs != 2 {
		t.Fatalf("got %d fsyncs for %d gated commits, want %s", fsyncs, n, want)
	}
	if got := m.WALSyncRequests.Load() - baseReq; got != int64(n) {
		t.Fatalf("WALSyncRequests delta = %d, want %d", got, n)
	}
	if got := m.WALSyncs.Load() - baseWALSyncs; got != fsyncs {
		t.Fatalf("WALSyncs metric = %d, disk counted %d", got, fsyncs)
	}
	if got := m.GroupSize.Count() - baseGroups; got != fsyncs {
		t.Fatalf("GroupSize observed %d cohorts, want one per fsync (%d)", got, fsyncs)
	}
	// Every sync caller is counted in exactly one cohort: the n committers
	// and the callers pending before them are in the drained fsyncs'
	// cohorts, or still pending if an fsync that began before they arrived
	// covered their records. With two fsyncs nobody is left pending: the
	// second began after the whole cohort had arrived.
	pending := s.GroupPending()
	if got, want := cohortMembers(m)-baseMembers, int64(n)+int64(basePending)-int64(pending); got != want {
		t.Fatalf("the %d drained cohorts counted %d members, want %d: %d committers, %d pending before, %d after",
			fsyncs, got, want, n, basePending, pending)
	}
	t.Logf("%d fsyncs drained %d commits; %d settle rounds since boot", fsyncs, n, s.SettleRounds())
	if fsyncs == 2 && pending != 0 {
		t.Fatalf("%d sync callers left pending after the second fsync, want 0", pending)
	}
	if check != nil {
		check()
	}
	for _, c := range conns {
		c.Close()
	}
	shutdownAndVerify(t, s)
}

// cohortMembers is the sum of the cohort sizes GroupSize has observed.
func cohortMembers(m *server.Metrics) int64 {
	return int64(math.Round(m.GroupSize.Mean() * float64(m.GroupSize.Count())))
}

// durableCommits recovers a server from a durable disk image and returns
// the labels of the top-level transactions committed in it.
func durableCommits(t *testing.T, image *server.MemDisk) map[string]bool {
	t.Helper()
	s, _, err := server.Recover(server.Options{WAL: image})
	if err != nil {
		t.Fatalf("recover image: %v", err)
	}
	defer s.Kill()
	tr := s.Tree()
	out := make(map[string]bool)
	for _, e := range s.Log() {
		if e.Kind == event.Commit && tr.Parent(e.Tx) == tname.Root {
			out[tr.Label(e.Tx)] = true
		}
	}
	return out
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
	waitFor(t, "cohort arrival", func() bool { return s.GroupArrived() >= baseArrived+uint64(n) })

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
