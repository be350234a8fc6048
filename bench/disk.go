package main

import (
	"sync"
	"time"

	"nestedsg/internal/server"
)

// timedDisk is a server.Disk over a real directory that counts every
// written byte, times every Sync and remembers how much of each segment
// has been fsynced, so that Crash can throw the unflushed tail away: the
// page cache would otherwise keep it across a process-level Kill and the
// restart test would lose nothing.
type timedDisk struct {
	inner *server.DirDisk

	mu      sync.Mutex
	written map[string]int64 // bytes written per segment
	synced  map[string]int64 // bytes known durable per segment
	syncNs  []int64          // duration of every Sync
	syncSum time.Duration    // Σ syncNs
	bytes   int64            // bytes written, all segments
}

func newTimedDisk(dir string) (*timedDisk, error) {
	inner, err := server.NewDirDisk(dir)
	if err != nil {
		return nil, err
	}
	return &timedDisk{inner: inner, written: map[string]int64{}, synced: map[string]int64{}}, nil
}

func (d *timedDisk) Segments() ([]string, error)             { return d.inner.Segments() }
func (d *timedDisk) ReadSegment(name string) ([]byte, error) { return d.inner.ReadSegment(name) }

func (d *timedDisk) Create(name string) (server.SegmentFile, error) {
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.written[name], d.synced[name] = 0, 0
	d.mu.Unlock()
	return &timedFile{d: d, name: name, f: f}, nil
}

func (d *timedDisk) Truncate(name string, size int64) error {
	if err := d.inner.Truncate(name, size); err != nil {
		return err
	}
	d.mu.Lock()
	if w, ok := d.written[name]; ok && w > size {
		d.written[name] = size
	}
	if s, ok := d.synced[name]; ok && s > size {
		d.synced[name] = size
	}
	d.mu.Unlock()
	return nil
}

// syncWall returns the total time spent inside Sync so far.
func (d *timedDisk) syncWall() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncSum
}

// Crash cuts every segment this disk wrote back to its last-synced length
// — what a power failure leaves — and returns the number of bytes lost.
// Call it after Server.Kill, when no file is open for writing any more.
func (d *timedDisk) Crash() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var lost int64
	for name, w := range d.written {
		s := d.synced[name]
		if w <= s {
			continue
		}
		if err := d.inner.Truncate(name, s); err != nil {
			return lost, err
		}
		lost += w - s
		d.written[name] = s
	}
	return lost, nil
}

type timedFile struct {
	d    *timedDisk
	name string
	f    server.SegmentFile
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.d.mu.Lock()
	f.d.written[f.name] += int64(n)
	f.d.bytes += int64(n)
	f.d.mu.Unlock()
	return n, err
}

// Sync marks durable only what had been written when the fsync started:
// the WAL writer fsyncs with its append lock released, so bytes can land
// in the file while the call is in flight.
func (f *timedFile) Sync() error {
	f.d.mu.Lock()
	upTo := f.d.written[f.name]
	f.d.mu.Unlock()
	t0 := time.Now()
	err := f.f.Sync()
	dt := time.Since(t0)
	f.d.mu.Lock()
	f.d.syncNs = append(f.d.syncNs, int64(dt))
	f.d.syncSum += dt
	if err == nil && upTo > f.d.synced[f.name] {
		f.d.synced[f.name] = upTo
	}
	f.d.mu.Unlock()
	return err
}

func (f *timedFile) Close() error { return f.f.Close() }
