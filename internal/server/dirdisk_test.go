package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// countedDirDisk is a DirDisk observed at both sides of its segments'
// staging buffer. Above it, each segment remembers how many bytes the WAL
// writer has appended and how many of them a Sync has covered. Below it,
// the disk counts the write(2)s and fsyncs that reach the os file, and can
// hold an fsync at a gate (the group-commit tests' syncGate). Create also
// checks the rotation invariant: the segment before is fully synced, and
// on disk, before the next one exists.
type countedDirDisk struct {
	*server.DirDisk
	t *testing.T

	mu   sync.Mutex
	segs []*countedSegment // in creation order

	writes, syncs atomic.Int64 // write(2)s and fsyncs on the os files
	gate          atomic.Pointer[syncGate]
}

func newCountedDirDisk(t *testing.T, dir string) *countedDirDisk {
	t.Helper()
	inner, err := server.NewDirDisk(dir)
	if err != nil {
		t.Fatalf("NewDirDisk: %v", err)
	}
	return &countedDirDisk{DirDisk: inner, t: t}
}

func (d *countedDirDisk) Create(name string) (server.SegmentFile, error) {
	d.mu.Lock()
	if n := len(d.segs); n > 0 {
		prev := d.segs[n-1]
		if prev.appended != prev.synced {
			d.t.Errorf("%s created with %d of %s's %d bytes unsynced", name, prev.appended-prev.synced, prev.name, prev.appended)
		}
		if got := d.fileSize(prev.name); got != prev.appended {
			d.t.Errorf("%s created with %s holding %d of its %d bytes", name, prev.name, got, prev.appended)
		}
	}
	d.mu.Unlock()

	f, err := d.DirDisk.Create(name)
	if err != nil {
		return nil, err
	}
	server.UnderStaging(f, func(osFile server.OSFile) server.OSFile {
		return &countedOSFile{OSFile: osFile, d: d}
	})
	seg := &countedSegment{SegmentFile: f, d: d, name: name}
	d.mu.Lock()
	d.segs = append(d.segs, seg)
	d.mu.Unlock()
	return seg, nil
}

func (d *countedDirDisk) hold() *syncGate {
	g := &syncGate{entered: make(chan struct{}), release: make(chan struct{})}
	d.gate.Store(g)
	return g
}

func (d *countedDirDisk) fsyncs() int64 { return d.syncs.Load() }

// durableImage is the disk a crash would leave now: each segment's synced
// prefix, read back from its file. It reports a read error rather than
// failing d.t, because a committer's goroutine calls it.
func (d *countedDirDisk) durableImage() (*server.MemDisk, error) {
	img := server.NewMemDisk()
	for _, s := range d.snapshot() {
		data, err := d.ReadSegment(s.name)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", s.name, err)
		}
		img.SetSegment(s.name, data[:s.synced])
	}
	return img, nil
}

func (d *countedDirDisk) fileSize(name string) int64 {
	fi, err := os.Stat(filepath.Join(d.Dir(), name))
	if err != nil {
		d.t.Fatalf("stat %s: %v", name, err)
	}
	return fi.Size()
}

// snapshot copies the per-segment counts.
func (d *countedDirDisk) snapshot() []countedSegment {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]countedSegment, len(d.segs))
	for i, s := range d.segs {
		out[i] = *s
	}
	return out
}

// totals returns the bytes appended to, and covered by a Sync on, every
// segment created so far.
func (d *countedDirDisk) totals() (appended, synced int64, segments int) {
	segs := d.snapshot()
	for _, s := range segs {
		appended += s.appended
		synced += s.synced
	}
	return appended, synced, len(segs)
}

// countedSegment sits where the WAL writer sees it, above the staging
// buffer.
type countedSegment struct {
	server.SegmentFile
	d                *countedDirDisk
	name             string
	appended, synced int64 // guarded by d.mu
}

func (s *countedSegment) Write(p []byte) (int, error) {
	n, err := s.SegmentFile.Write(p)
	s.d.mu.Lock()
	s.appended += int64(n)
	s.d.mu.Unlock()
	return n, err
}

// Sync covers what had been appended when it started: the WAL writer
// fsyncs with its append lock released.
func (s *countedSegment) Sync() error {
	s.d.mu.Lock()
	upTo := s.appended
	s.d.mu.Unlock()
	err := s.SegmentFile.Sync()
	s.d.mu.Lock()
	if err == nil && upTo > s.synced {
		s.synced = upTo
	}
	s.d.mu.Unlock()
	return err
}

// countedOSFile sits below the staging buffer, in place of the *os.File.
// Truncate, which grows the segment, passes through uncounted.
type countedOSFile struct {
	server.OSFile
	d *countedDirDisk
}

func (f *countedOSFile) Write(p []byte) (int, error) {
	f.d.writes.Add(1)
	return f.OSFile.Write(p)
}

func (f *countedOSFile) Sync() error {
	if g := f.d.gate.Load(); g != nil {
		g.enterOnce.Do(func() { close(g.entered) })
		<-g.release
	}
	f.d.syncs.Add(1)
	return f.OSFile.Sync()
}

func writeX(i int) func(tx *client.Tx) error {
	return func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i)))
		return err
	}
}

// TestDirDiskKillLosesOnlyUnsynced: N acknowledged commits and one
// transaction in flight over a real directory. The directory as it stands
// at that instant is what a SIGKILL would leave, so the test copies it:
// every segment file's records must end exactly where its last Sync did —
// not one byte of the in-flight transaction's records, which exist only in
// the staging buffer — and the rest of the file must be zeros: the open
// segment has grown ahead of its records, the closed ones were trimmed.
// Recover from the copy must give back exactly the N commits, trimming the
// zeros without a torn byte. (Server.Kill itself is too polite to show
// this: its session teardown aborts the open transaction and syncs the
// abort.) Run once in a single segment and once with segments small enough
// to rotate many times, where Create checks that each rotation flushed and
// fsynced the old segment first.
func TestDirDiskKillLosesOnlyUnsynced(t *testing.T) {
	const n = 12
	for _, segBytes := range []int{0, 256} {
		t.Run(fmt.Sprintf("segment=%d", segBytes), func(t *testing.T) {
			disk := newCountedDirDisk(t, t.TempDir())
			opts := server.Options{WAL: disk, WALSegmentBytes: segBytes, Objects: []string{"x"}}
			s, _ := recoverAndStart(t, opts)
			c := dialT(t, s)
			for i := 0; i < n; i++ {
				if err := c.RunTx(1, writeX(i)); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			if _, err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Access("x", spec.OpRead, spec.Nil); err != nil {
				t.Fatal(err)
			}

			appended, synced, segments := disk.totals()
			if appended == synced {
				t.Fatal("nothing is unsynced with a transaction in flight")
			}
			if segBytes > 0 && segments < 4 {
				t.Fatalf("WALSegmentBytes=%d made only %d segments, want several rotations", segBytes, segments)
			}
			killed, err := server.NewDirDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range disk.snapshot() {
				data, err := disk.ReadSegment(seg.name)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(data)) < seg.synced || len(bytes.TrimRight(data[seg.synced:], "\x00")) != 0 {
					t.Errorf("%s holds %d bytes, not the %d its last Sync covered (of %d appended) and then zeros",
						seg.name, len(data), seg.synced, seg.appended)
				}
				if err := os.WriteFile(filepath.Join(killed.Dir(), seg.name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s.Kill()
			c.Close()

			opts.WAL = killed
			s2, rep := recoverAndStart(t, opts)
			if !rep.AuditOK || rep.TornBytes != 0 || rep.ZeroBytes == 0 {
				t.Fatalf("recovery saw more than a synced prefix and a zero tail: %s", rep.Summary())
			}
			if got := s2.Metrics().TopCommits.Load(); got != n {
				t.Fatalf("recovered %d top-level commits, want the %d acknowledged", got, n)
			}
			c2 := dialT(t, s2)
			if err := c2.RunTx(1, writeX(n)); err != nil {
				t.Fatalf("post-recovery commit: %v", err)
			}
			c2.Close()
			shutdownAndVerify(t, s2)
		})
	}
}

// TestDirDiskSyncKeepsFileSize: a segment file grows in whole steps ahead
// of its records, so the fsync a commit waits for does not change the
// file's size. 2 000 commit-sized writes, each synced, with the file
// stat'ed after every Sync: its size changes at most once per step of
// records written, always covers them, and after Close is exactly them.
func TestDirDiskSyncKeepsFileSize(t *testing.T) {
	const (
		commits = 2000
		record  = 600 // bytes per commit: 2 000 of them pass one growth step
		step    = 1 << 20
	)
	disk, err := server.NewDirDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const name = "wal-00000001.seg"
	f, err := disk.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(disk.Dir(), name)
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	buf := make([]byte, record)
	var written, last int64
	changes := 0
	for i := 0; i < commits; i++ {
		for j := range buf {
			buf[j] = byte(1 + (i+j)%255)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		written += record
		got := size()
		if got < written {
			t.Fatalf("commit %d: the file holds %d bytes, %d were synced", i, got, written)
		}
		if got != last {
			changes++
			last = got
		}
	}
	if maxChanges := int((written + step - 1) / step); changes > maxChanges {
		t.Fatalf("the file's size changed %d times over %d bytes of records, want at most %d", changes, written, maxChanges)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != written {
		t.Fatalf("closed segment holds %d bytes, want exactly its %d bytes of records", got, written)
	}
	t.Logf("%d syncs of %d B: the size changed %d times, ending at %d B", commits, record, changes, written)
}

// TestDirDiskOneWritePerFsync counts what reaches the os file. Sequential
// durable commits cost one fsync each and at most one write(2) per fsync —
// the WAL writer's dozen appends per transaction all land in the staging
// buffer — with and without rotation.
func TestDirDiskOneWritePerFsync(t *testing.T) {
	const n = 20
	for _, segBytes := range []int{0, 512} {
		disk := newCountedDirDisk(t, t.TempDir())
		s, _ := recoverAndStart(t, server.Options{WAL: disk, WALSegmentBytes: segBytes, Objects: []string{"x"}})
		c := dialT(t, s)
		writes0, syncs0 := disk.writes.Load(), disk.syncs.Load()
		appended0, _, segs0 := disk.totals()
		walSyncs0 := s.Metrics().WALSyncs.Load()
		for i := 0; i < n; i++ {
			if err := c.RunTx(1, writeX(i)); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		writes, syncs := disk.writes.Load()-writes0, disk.syncs.Load()-syncs0
		appended, synced, segs := disk.totals()
		rotations := int64(segs - segs0)
		if segBytes > 0 && rotations < 3 {
			t.Fatalf("WALSegmentBytes=%d rotated %d times in %d commits, want several", segBytes, rotations, n)
		}
		if got := s.Metrics().WALSyncs.Load() - walSyncs0; got != n {
			t.Fatalf("segment=%d: %d group-commit fsyncs for %d sequential commits", segBytes, got, n)
		}
		if syncs != n+rotations {
			t.Fatalf("segment=%d: %d fsyncs reached the files, want %d commits + %d rotations", segBytes, syncs, n, rotations)
		}
		if writes > syncs {
			t.Fatalf("segment=%d: %d write(2)s for %d fsyncs: a record reached the file on its own", segBytes, writes, syncs)
		}
		if appended != synced {
			t.Fatalf("segment=%d: %d appended bytes, %d synced, with every commit acknowledged", segBytes, appended, synced)
		}
		t.Logf("segment=%d: %d commits, %d bytes: %d write(2)s, %d fsyncs, %d rotations",
			segBytes, n, appended-appended0, writes, syncs, rotations)
		c.Close()
		shutdownAndVerify(t, s)
	}
}

// TestDirDiskCohortOneWritePerFsync: the gated cohorts of
// TestGroupCommitCoalescesFsyncs over a real directory. Each drains as it
// does there — 1 or 2 fsyncs when every top is open at the gate, exactly 2
// when the others arrive while the first fsync is in flight — with no
// member acked before its COMMIT is durable, and with exactly one write(2)
// before each fsync.
func TestDirDiskCohortOneWritePerFsync(t *testing.T) {
	const cohort = 6
	for _, tc := range []struct {
		name string
		open int
	}{{"cohort", cohort}, {"arriving_mid_fsync", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			disk := newCountedDirDisk(t, t.TempDir())
			gatedCohort(t, disk, cohort, tc.open, func() {
				// Boot's sync and every cohort fsync each wrote what was
				// staged in one write(2).
				if writes, syncs := disk.writes.Load(), disk.syncs.Load(); writes != syncs {
					t.Fatalf("%d write(2)s for %d fsyncs, want one before each", writes, syncs)
				}
			})
		})
	}
}

// TestDirDiskConcurrentWriteSync overlaps Write and Sync on one segment
// file, as the WAL writer does (it fsyncs with its append lock released),
// with chunks large enough to spill past the staging bound now and then.
// Run under -race; the file must hold every chunk, in order, once.
func TestDirDiskConcurrentWriteSync(t *testing.T) {
	disk, err := server.NewDirDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const name = "wal-00000001.seg"
	f, err := disk.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 600; i++ {
		size := 1 + i%37
		if i%97 == 0 {
			size = 40 << 10 // two of these cross the 64 KiB spill bound
		}
		want = append(want, bytes.Repeat([]byte{byte(i)}, size)...)
	}

	done := make(chan struct{})
	var syncers sync.WaitGroup
	for i := 0; i < 2; i++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := f.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}()
	}
	for rest := want; len(rest) > 0; {
		size := 1
		for size < len(rest) && rest[size] == rest[0] {
			size++
		}
		if _, err := f.Write(rest[:size]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		rest = rest[size:]
	}
	close(done)
	syncers.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Close hands a tail written after the last Sync to the file (with no
	// fsync: bench's timedDisk.Crash cuts exactly that tail away), and the
	// closed file takes no more.
	want = append(want, "unsynced"...)
	if _, err := f.Write([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("late")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Write after Close: %v, want os.ErrClosed", err)
	}
	if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync after Close: %v, want os.ErrClosed", err)
	}
	got, err := disk.ReadSegment(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, want the %d written ones in write order", len(got), len(want))
	}
}
