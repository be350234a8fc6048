package server_test

import (
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// slowDisk is a MemDisk whose Sync takes a set time: spinning, so that it
// keeps the processor as a thread blocked in fsync keeps its P, or sleeping
// when sleep is set. It counts the syncs that reach it.
type slowDisk struct {
	*server.MemDisk
	d       atomic.Int64 // nanoseconds per Sync
	sleep   bool
	syncs   atomic.Int64
	started atomic.Int64 // when the latest Sync began, in Unix nanoseconds
}

func newSlowDisk(d time.Duration, sleep bool) *slowDisk {
	disk := &slowDisk{MemDisk: server.NewMemDisk(), sleep: sleep}
	disk.d.Store(int64(d))
	return disk
}

func (d *slowDisk) Create(name string) (server.SegmentFile, error) {
	f, err := d.MemDisk.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{SegmentFile: f, d: d}, nil
}

type slowFile struct {
	server.SegmentFile
	d *slowDisk
}

func (f *slowFile) Sync() error {
	f.d.started.Store(time.Now().UnixNano())
	d := time.Duration(f.d.d.Load())
	if f.d.sleep {
		time.Sleep(d)
	} else {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	f.d.syncs.Add(1)
	return f.SegmentFile.Sync()
}

// readWrite reads obj and then writes v to it. The read waits for its
// answer, so the transaction is open on the server across a round trip, as
// a transaction that reads before it writes is.
func readWrite(obj string, v int64) func(tx *client.Tx) error {
	return func(tx *client.Tx) error {
		if _, err := tx.Access(obj, spec.OpRead, spec.Nil); err != nil {
			return err
		}
		_, err := tx.Access(obj, spec.OpWrite, spec.Int(v))
		return err
	}
}

// runClients runs perClient transactions on each connection, each reading
// and then writing the connection's own object, and fails the test on any
// error.
func runClients(t *testing.T, conns []*client.Conn, objs []string, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(c *client.Conn, obj string) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if err := c.RunTx(1, readWrite(obj, int64(j))); err != nil {
					errs <- err
					return
				}
			}
		}(c, objs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("commit: %v", err)
	}
}

// TestCohortFormsOnOneProcessor: at GOMAXPROCS=1 the thread in fsync keeps
// the only processor, so without settling a peer never reaches its COMMIT
// during a sync and every commit pays its own fsync. Two clients on a disk
// whose Sync keeps the processor for 100 µs must share fsyncs: at most 0.6
// per top-level commit.
func TestCohortFormsOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	disk := newSlowDisk(100*time.Microsecond, false)
	objs := []string{"x0", "x1"}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
	conns := []*client.Conn{dialT(t, s), dialT(t, s)}
	syncs0, commits0 := disk.syncs.Load(), s.Metrics().TopCommits.Load()
	runClients(t, conns, objs, 200)
	syncs, commits := disk.syncs.Load()-syncs0, s.Metrics().TopCommits.Load()-commits0
	perCommit := float64(syncs) / float64(commits)
	t.Logf("%d fsyncs for %d commits (%.3f per commit), group size mean %.2f, %d rounds",
		syncs, commits, perCommit, s.Metrics().GroupSize.Mean(), s.SettleRounds())
	if perCommit > 0.6 {
		t.Fatalf("%d fsyncs for %d top-level commits: %.3f per commit, want <= 0.6", syncs, commits, perCommit)
	}
	for _, c := range conns {
		c.Close()
	}
	shutdownAndVerify(t, s)
}

// TestLoneCommitterDoesNotSettle: a committer with no other top-level
// transaction open has nobody to wait for, so it fsyncs at once — however
// long the last fsync took, and with another connection present but idle.
func TestLoneCommitterDoesNotSettle(t *testing.T) {
	disk := newSlowDisk(50*time.Microsecond, false)
	objs := []string{"x0"}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
	idle := dialT(t, s)
	if err := idle.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c := dialT(t, s)
	syncs0, commits0 := disk.syncs.Load(), s.Metrics().TopCommits.Load()
	runClients(t, []*client.Conn{c}, objs, 100)
	if got := s.SettleRounds(); got != 0 {
		t.Fatalf("a lone committer settled for %d rounds, want 0", got)
	}
	if syncs, commits := disk.syncs.Load()-syncs0, s.Metrics().TopCommits.Load()-commits0; syncs != commits {
		t.Fatalf("%d fsyncs for %d sequential commits, want one each", syncs, commits)
	}
	c.Close()
	idle.Close()
	shutdownAndVerify(t, s)
}

// openPeer opens a top-level transaction on c that reads obj, and leaves
// it open.
func openPeer(t *testing.T, c *client.Conn, obj string) {
	t.Helper()
	if _, err := c.Begin(); err != nil {
		t.Fatalf("peer begin: %v", err)
	}
	if _, err := c.Access(obj, spec.OpRead, spec.Nil); err != nil {
		t.Fatalf("peer read: %v", err)
	}
}

// streamPeer opens a top-level transaction on c and reads obj in it until
// stop is closed or the connection fails, so records keep being appended
// while the transaction never commits. The returned channel closes when the
// peer has stopped.
func streamPeer(t *testing.T, c *client.Conn, obj string, stop <-chan struct{}) <-chan struct{} {
	openPeer(t, c, obj)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Access(obj, spec.OpRead, spec.Nil); err != nil {
				return
			}
		}
	}()
	return done
}

// commitOne runs one read-write transaction on c.
func commitOne(t *testing.T, c *client.Conn, obj string, v int64) {
	t.Helper()
	if err := c.RunTx(1, readWrite(obj, v)); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestSettleIsBounded: a peer holds a top-level transaction open and never
// commits, so a settling leader waits for a COMMIT that does not come. The
// wait ends after two rounds that append nothing, or after at most one
// fsync's time while every round sees the peer append
// (TestSettleEndsAfterOneFsync times that at the writer). Either way the
// fsync covering a COMMIT starts at most about one fsync after the COMMIT
// reached the leader. Timed from the client, the COMMIT's own hops add to
// that, and they are slow while an appending peer keeps every processor
// busy: the bound allows schedSlack for them. (The ack comes later still,
// after the certifier has worked through everything the peer appended,
// which is not the settle's doing.)
func TestSettleIsBounded(t *testing.T) {
	const fsync = 20 * time.Millisecond
	const commits = 5
	const bound = fsync + schedSlack // the settle, and the hops
	objs := []string{"x0", "x1"}
	commit := func(t *testing.T, disk *slowDisk, c *client.Conn, v int64) time.Duration {
		t.Helper()
		if _, err := c.Begin(); err != nil {
			t.Fatalf("begin: %v", err)
		}
		if _, err := c.Access(objs[0], spec.OpWrite, spec.Int(v)); err != nil {
			t.Fatalf("write: %v", err)
		}
		sent := time.Now()
		if _, err := c.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		return time.Duration(disk.started.Load() - sent.UnixNano())
	}

	t.Run("idle_peer", func(t *testing.T) {
		disk := newSlowDisk(fsync, true)
		s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
		peer, c := dialT(t, s), dialT(t, s)
		openPeer(t, peer, objs[1])
		rounds0 := s.SettleRounds()
		for i := 0; i < commits; i++ {
			if d := commit(t, disk, c, int64(i)); d > bound {
				t.Errorf("commit %d's fsync started %v after its COMMIT with an idle peer, want at most %v", i, d, bound)
			}
		}
		if got := s.SettleRounds() - rounds0; got == 0 || got > 2*commits {
			t.Errorf("%d settle rounds for %d commits with an idle peer, want 1 to %d", got, commits, 2*commits)
		}
		peer.Close()
		c.Close()
		shutdownAndVerify(t, s)
	})

	t.Run("appending_peer", func(t *testing.T) {
		disk := newSlowDisk(fsync, true)
		s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
		peer, c := dialT(t, s), dialT(t, s)
		stop := make(chan struct{})
		stopped := streamPeer(t, peer, objs[1], stop)
		for i := 0; i < commits; i++ {
			if d := commit(t, disk, c, int64(i)); d > bound {
				t.Errorf("commit %d's fsync started %v after its COMMIT with an appending peer, want at most %v", i, d, bound)
			}
		}
		close(stop)
		<-stopped
		peer.Close()
		c.Close()
		shutdownAndVerify(t, s)
	})
}

// TestKillWhileSettling: a Kill that lands while a leader is settling
// returns at once. The last two fsyncs took a second each, so the leader
// may settle for that long while a peer keeps appending. The peer is served over a
// net.Pipe, so at GOMAXPROCS=1 it keeps the run queue busy and appends in
// every round the leader waits. Kill closes the peer's connection, the
// peer's abort closes its top, and the leader stops settling.
func TestKillWhileSettling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	disk := newSlowDisk(0, true)
	objs := []string{"x0", "x1"}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
	c := dialT(t, s)
	disk.d.Store(int64(time.Second))
	commitOne(t, c, objs[0], 1) // alone: no settle, and the fsyncs take 1 s
	commitOne(t, c, objs[0], 2)
	disk.d.Store(0)

	srvEnd, cliEnd := net.Pipe()
	s.ServeConn(srvEnd)
	peer := client.NewConn(cliEnd)
	stop := make(chan struct{})
	defer close(stop)
	stopped := streamPeer(t, peer, objs[1], stop)
	rounds0 := s.SettleRounds()
	committed := make(chan error, 1)
	go func() { committed <- c.RunTx(1, readWrite(objs[0], 3)) }()
	waitFor(t, "the leader to settle", func() bool { return s.SettleRounds() > rounds0 })
	start := time.Now()
	s.Kill()
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("Kill took %v while a leader settled on a 1 s budget", d)
	}
	<-committed // answered or cut off; either way the session is gone
	<-stopped
	peer.Close()
	c.Close()
}

// TestRecoverKillReleasesSettler: each of 50 lives recovers the same disk,
// settles at least one sync leader (which makes the writer's pipe and helper
// goroutine) and is killed. Afterwards the process holds as many goroutines
// and open files as it did after the first life.
func TestRecoverKillReleasesSettler(t *testing.T) {
	disk := newSlowDisk(20*time.Microsecond, false)
	objs := []string{"x0", "x1"}
	life := func() {
		s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: objs})
		peer, c := dialT(t, s), dialT(t, s)
		// A leader settles for at most as long as the shorter of the last
		// two fsyncs took, so the first two fsyncs of a life, which may be
		// these commits', never settle.
		commitOne(t, c, objs[0], 1)
		commitOne(t, c, objs[0], 2)
		openPeer(t, peer, objs[1])
		commitOne(t, c, objs[0], 3)
		if s.SettleRounds() == 0 {
			t.Fatal("the commit did not settle with a peer's top open")
		}
		s.Kill()
		peer.Close()
		c.Close()
	}
	life() // the first life starts the runtime's poller and timers
	baseG, baseFD := settledCounts(t, 0, 0)
	for i := 0; i < 50; i++ {
		life()
	}
	if g, fd := settledCounts(t, baseG, baseFD); g > baseG || fd > baseFD {
		t.Fatalf("after 50 lives: %d goroutines and %d open files, want at most %d and %d", g, fd, baseG, baseFD)
	}
}

// settledCounts waits (up to 5 s) for the goroutine and open-file counts to
// fall to at most g and fd — or, with g and fd 0, for them to stop falling —
// and returns them. A closed connection's goroutines exit asynchronously.
func settledCounts(t *testing.T, g, fd int) (int, int) {
	t.Helper()
	count := func() (int, int) {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return runtime.NumGoroutine(), len(ents)
	}
	deadline := time.Now().Add(5 * time.Second)
	lastG, lastFD := count()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		curG, curFD := count()
		if g > 0 && curG <= g && curFD <= fd {
			return curG, curFD
		}
		if g == 0 && curG == lastG && curFD == lastFD {
			return curG, curFD
		}
		lastG, lastFD = curG, curFD
	}
	return lastG, lastFD
}
