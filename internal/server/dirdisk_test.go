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

// countedDirDisk is a DirDisk observed at its segments. Each segment
// remembers how many bytes the WAL writer has written to it and how many of
// them a Sync has covered; the disk counts the Writes, each one write(2),
// and the fsyncs, and can hold an fsync at a gate (the group-commit tests'
// syncGate). Create also checks the rotation invariant: the segment before
// is fully synced, and on disk, before the next one exists.
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

// countedSegment is a DirDisk segment as the WAL writer sees it.
type countedSegment struct {
	server.SegmentFile
	d                *countedDirDisk
	name             string
	appended, synced int64 // guarded by d.mu
}

func (s *countedSegment) Write(p []byte) (int, error) {
	s.d.writes.Add(1)
	n, err := s.SegmentFile.Write(p)
	s.d.mu.Lock()
	s.appended += int64(n)
	s.d.mu.Unlock()
	return n, err
}

// Sync covers what had been written when it started. With something to
// cover, it waits at the gate, if one is armed, first: a rotation's Sync of
// a segment the last fsync covered goes through.
func (s *countedSegment) Sync() error {
	s.d.mu.Lock()
	upTo, owed := s.appended, s.appended > s.synced
	s.d.mu.Unlock()
	if g := s.d.gate.Load(); g != nil && owed {
		g.enterOnce.Do(func() { close(g.entered) })
		<-g.release
	}
	s.d.syncs.Add(1)
	err := s.SegmentFile.Sync()
	s.d.mu.Lock()
	if err == nil && upTo > s.synced {
		s.synced = upTo
	}
	s.d.mu.Unlock()
	return err
}

func writeX(i int) func(tx *client.Tx) error {
	return func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(int64(i)))
		return err
	}
}

// TestDirDiskKillLosesOnlyUnsynced: N acknowledged commits over a real
// directory, then one more whose sync is held between its write and its
// fsync: the only window in which a segment holds unsynced bytes. The test
// copies the directory as it stands at that instant twice: as a kill leaves
// it, whole, and as a power cut leaves it, with every byte past each
// segment's last Sync zeroed. Every segment file must hold the bytes its
// Syncs covered, then the held write's, then zeros: the open segment has
// grown ahead of its records, the closed ones were trimmed. Recover from
// the power-cut copy must give back exactly the N commits, trimming the
// zeros without a torn byte; from the kill copy, the held write's records
// as well, so N+1. Run once in a single segment and once with segments
// small enough to rotate many times, where Create checks that each
// rotation fsynced the old segment first.
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
			g := disk.hold()
			committed := make(chan error, 1)
			go func() {
				_, err := c.Commit()
				committed <- err
			}()
			<-g.entered

			appended, synced, segments := disk.totals()
			if appended == synced {
				t.Fatal("nothing is unsynced with a sync held after its write")
			}
			if segBytes > 0 && segments < 4 {
				t.Fatalf("WALSegmentBytes=%d made only %d segments, want several rotations", segBytes, segments)
			}
			killed, err := server.NewDirDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cut, err := server.NewDirDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range disk.snapshot() {
				data, err := disk.ReadSegment(seg.name)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(data)) < seg.appended || len(bytes.TrimRight(data[seg.appended:], "\x00")) != 0 {
					t.Errorf("%s holds %d bytes, not the %d written to it (%d of them synced) and then zeros",
						seg.name, len(data), seg.appended, seg.synced)
				}
				if err := os.WriteFile(filepath.Join(killed.Dir(), seg.name), data, 0o644); err != nil {
					t.Fatal(err)
				}
				lost := append(data[:seg.synced:seg.synced], make([]byte, int64(len(data))-seg.synced)...)
				if err := os.WriteFile(filepath.Join(cut.Dir(), seg.name), lost, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			close(g.release)
			if err := <-committed; err != nil {
				t.Fatalf("the held commit: %v", err)
			}
			s.Kill()
			c.Close()

			opts.WAL = killed
			s1, rep := recoverAndStart(t, opts)
			if got := s1.Metrics().TopCommits.Load(); !rep.AuditOK || rep.TornBytes != 0 || got != n+1 {
				t.Fatalf("the kill copy recovered %d top-level commits, want %d, and no torn byte: %s", got, n+1, rep.Summary())
			}
			s1.Kill()

			opts.WAL = cut
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
// the sync leader copies a transaction's events and names in one Write —
// with and without rotation.
func TestDirDiskOneWritePerFsync(t *testing.T) {
	const n = 20
	for _, segBytes := range []int{0, 256} {
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
				// Boot's sync and every cohort fsync each wrote what it
				// copied in one write(2).
				if writes, syncs := disk.writes.Load(), disk.syncs.Load(); writes != syncs {
					t.Fatalf("%d write(2)s for %d fsyncs, want one before each", writes, syncs)
				}
			})
		})
	}
}

// TestDirDiskWriteSyncClose writes chunks to one segment file, syncing
// after some, as the WAL writer does, and large enough now and then to grow
// the file more than one step. The file must hold every chunk, in order,
// once; Close puts a chunk written after the last Sync in the file with
// no fsync (bench's timedDisk.Crash cuts exactly that tail away), and the
// closed file takes no more.
func TestDirDiskWriteSyncClose(t *testing.T) {
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
			size = 400 << 10
		}
		chunk := bytes.Repeat([]byte{byte(i)}, size)
		want = append(want, chunk...)
		if _, err := f.Write(chunk); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if i%3 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
	}
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
