package server_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// failingDisk wraps a MemDisk and, once fail is set, makes every segment
// write and sync return an I/O error — the "disk died under a running
// server" scenario.
type failingDisk struct {
	*server.MemDisk
	fail atomic.Bool
}

var errInjected = errors.New("injected disk failure")

func (d *failingDisk) Create(name string) (server.SegmentFile, error) {
	if d.fail.Load() {
		return nil, errInjected
	}
	f, err := d.MemDisk.Create(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{d: d, f: f}, nil
}

type failingFile struct {
	d *failingDisk
	f server.SegmentFile
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.d.fail.Load() {
		return 0, errInjected
	}
	return f.f.Write(p)
}

func (f *failingFile) Sync() error {
	if f.d.fail.Load() {
		return errInjected
	}
	return f.f.Sync()
}

func (f *failingFile) Close() error { return f.f.Close() }

// TestCommitNotAckedAfterWALFailure: once the WAL writer fails, a COMMIT
// must not be acknowledged StatusOK (the events would vanish on recovery),
// and the server must refuse new top-level transactions instead of
// silently dropping every further append.
func TestCommitNotAckedAfterWALFailure(t *testing.T) {
	disk := &failingDisk{MemDisk: server.NewMemDisk()}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x"}})
	c := dialT(t, s)

	// Healthy baseline: a commit on the working disk is acked.
	if err := c.RunTx(1, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(1))
		return err
	}); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}

	disk.fail.Store(true)
	if _, err := c.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(2)); err != nil {
		t.Fatalf("access: %v", err)
	}
	if _, err := c.Commit(); err == nil {
		t.Fatal("commit acked OK after the WAL writer failed")
	} else if !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("commit error does not name durability: %v", err)
	}
	if s.WALError() == nil {
		t.Fatal("WALError is nil after an injected failure")
	}
	if got := s.Metrics().WALFailures.Load(); got != 1 {
		t.Fatalf("WALFailures = %d, want 1", got)
	}

	// The failure is sticky: no new work is accepted.
	if _, err := c.Begin(); err == nil {
		t.Fatal("BEGIN accepted with a broken WAL")
	} else if !strings.Contains(err.Error(), "wal unavailable") {
		t.Fatalf("begin error does not name the wal: %v", err)
	}
	c.Close()
	s.Kill()
}

// TestDegradedReadOnlyCommitIsAwaited: on moss a read-only transaction is
// served as an ordinary one, logged and made durable, so its COMMIT answer
// is a verdict and RunReadTx must wait for it. Here the disk fails under the
// body: RunReadTx itself returns the refusal, and leaves nothing owed.
func TestDegradedReadOnlyCommitIsAwaited(t *testing.T) {
	disk := &failingDisk{MemDisk: server.NewMemDisk()}
	s, _ := recoverAndStart(t, server.Options{WAL: disk, Objects: []string{"x"}})
	defer s.Kill()
	c := dialT(t, s)
	defer c.Close()
	err := c.RunReadTx(1, func(tx *client.Tx) error {
		if _, err := tx.Access("x", spec.OpRead, spec.Nil); err != nil { // BEGIN is answered
			return err
		}
		disk.fail.Store(true)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "commit not durable") {
		t.Fatalf("RunReadTx = %v, want the COMMIT's refusal", err)
	}
	if got := s.Metrics().WALFailures.Load(); got != 1 {
		t.Fatalf("WALFailures = %d, want 1", got)
	}
	req := s.Metrics().Requests.Load()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Requests.Load() - req; n != 1 {
		t.Fatalf("the PING after RunReadTx sent %d requests, want itself alone", n)
	}
}
