package server_test

import (
	"strings"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/locking"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

// TestValidateBackendOptions: the CLIs' pre-flight accepts every published
// backend name and rejects the configurations New would panic on.
func TestValidateBackendOptions(t *testing.T) {
	for _, name := range server.BackendNames() {
		if err := server.ValidateBackendOptions(server.Options{Backend: name}); err != nil {
			t.Errorf("backend %q rejected: %v", name, err)
		}
	}
	for what, opts := range map[string]server.Options{
		"unknown name":       {Backend: "nope"},
		"replica (offline)":  {Backend: "replica"},
		"backend + protocol": {Backend: "mvto", Protocol: locking.Protocol{}},
		"mvto non-register":  {Backend: "mvto", DefaultSpec: spec.Counter{}},
	} {
		if err := server.ValidateBackendOptions(opts); err == nil {
			t.Errorf("%s: validated, want error", what)
		}
	}
}

// roReadValue opens one read-only transaction and reads label through it.
func roReadValue(t *testing.T, c *client.Conn, label string) (string, spec.Value) {
	t.Helper()
	name, err := c.BeginRO()
	if err != nil {
		t.Fatalf("BeginRO: %v", err)
	}
	v, err := c.Access(label, spec.OpRead, spec.Nil)
	if err != nil {
		t.Fatalf("RO read: %v", err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatalf("RO commit: %v", err)
	}
	return name, v
}

// expectSnapshot opens one read-only transaction and requires it to read
// want from label: a commit acknowledged before the BEGIN is inside its cut.
func expectSnapshot(t *testing.T, c *client.Conn, label string, want spec.Value) {
	t.Helper()
	if _, v := roReadValue(t, c, label); v != want {
		t.Fatalf("snapshot read %s=%s after the acknowledged commit of %s", label, v, want)
	}
}

// TestMVTOReadOnlySnapshotLifecycle drives the whole read-only path over
// TCP against the mvto backend: committed writes become visible to
// snapshot cuts, read-only transactions take no locks (a concurrent
// writer commits while one is open), write operations inside them are
// rejected, subtransactions are pure bookkeeping, and the object audits
// and final certificate still hold.
func TestMVTOReadOnlySnapshotLifecycle(t *testing.T) {
	s := startServer(t, server.Options{Backend: "mvto", Objects: []string{"x", "y"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := s.Backend(); got != "mvto" {
		t.Fatalf("Backend() = %q, want mvto", got)
	}

	// A fresh store serves the initial value at cut 0.
	if name, v := roReadValue(t, c, "x"); v != spec.Int(0) || !strings.Contains(name, ".r") {
		t.Fatalf("initial RO read: name=%q v=%s, want .r-named read of 0", name, v)
	}

	err = c.RunTx(8, func(tx *client.Tx) error {
		if _, err := tx.Access("x", spec.OpWrite, spec.Int(5)); err != nil {
			return err
		}
		_, err := tx.Access("y", spec.OpWrite, spec.Int(7))
		return err
	})
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	expectSnapshot(t, c, "x", spec.Int(5))

	// One read-only transaction observes both writes at a single cut, with
	// a subtransaction in the middle, and rejects a write operation.
	if _, err := c.BeginRO(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Access("x", spec.OpRead, spec.Nil); err != nil || v != spec.Int(5) {
		t.Fatalf("RO x: v=%v err=%v", v, err)
	}
	if _, err := c.Child(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Access("y", spec.OpRead, spec.Nil); err != nil || v != spec.Int(7) {
		t.Fatalf("RO y in child: v=%v err=%v", v, err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("x", spec.OpWrite, spec.Int(9)); err == nil {
		t.Fatal("write op inside a read-only transaction was accepted")
	}
	// The open read-only transaction holds no locks: a concurrent writer
	// commits immediately instead of parking behind it.
	w, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	werr := w.RunTx(8, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(9))
		return err
	})
	w.Close()
	if werr != nil {
		t.Fatalf("writer while RO open: %v", werr)
	}
	// The pinned cut predates that commit; the open transaction still sees 5.
	if v, err := c.Access("x", spec.OpRead, spec.Nil); err != nil || v != spec.Int(5) {
		t.Fatalf("RO reread after concurrent commit: v=%v err=%v, want the pinned 5", v, err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	expectSnapshot(t, c, "x", spec.Int(9))

	if err := s.AuditObjects(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	snap := s.MetricsSnapshot()
	if snap["backend"] != "mvto" {
		t.Fatalf("metrics backend = %v", snap["backend"])
	}
	if n, _ := snap["mvto_snapshot_reads"].(int64); n == 0 {
		t.Fatal("mvto_snapshot_reads stayed 0")
	}
	if n, _ := snap["mvto_ro_begins"].(int64); n == 0 {
		t.Fatal("mvto_ro_begins stayed 0")
	}
	shutdownAndVerify(t, s)
}

// TestReadOnlyDegradesWithoutSnapshots: on a backend with no snapshot
// store, a read-only BEGIN is served as an ordinary transaction — the
// read takes a Moss lock and returns the current committed value, and the
// transaction is logged and certified like any other.
func TestReadOnlyDegradesWithoutSnapshots(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.RunTx(8, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(3))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// No snapshot store: the degraded read locks the live object.
	name, v := roReadValue(t, c, "x")
	if v != spec.Int(3) {
		t.Fatalf("degraded RO read: got %s, want 3", v)
	}
	if strings.Contains(name, ".r") {
		t.Fatalf("degraded RO transaction got a snapshot-style name %q", name)
	}
	var viaRun spec.Value
	if err := c.RunReadTx(8, func(tx *client.Tx) error {
		var err error
		viaRun, err = tx.Access("x", spec.OpRead, spec.Nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if viaRun != spec.Int(3) {
		t.Fatalf("RunReadTx read: got %s, want 3", viaRun)
	}
	f := shutdownAndVerify(t, s)
	if f.Commits < 3 {
		t.Fatalf("degraded read-only transactions missing from the log: %d commits", f.Commits)
	}
}

// TestSnapshotReadStableAtCut is the premise a snapshot transaction's client
// relies on when it answers a repeated read from the answer it holds: a read
// at the cut a read-only BEGIN pinned answers the same after a later commit
// to the object has been certified, published and acknowledged. Only a new
// BEGIN, which pins a new cut, sees that commit.
func TestSnapshotReadStableAtCut(t *testing.T) {
	s := startServer(t, server.Options{Backend: "mvto", Objects: []string{"x"}})
	r, w := dialT(t, s), dialT(t, s)
	defer r.Close()
	defer w.Close()
	if _, err := r.BeginRO(); err != nil {
		t.Fatal(err)
	}
	first, err := r.Access("x", spec.OpRead, spec.Nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Access("x", spec.OpWrite, spec.Int(7)); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the certifier to pass the commit", func() bool {
		v, err := w.Verdict()
		return err == nil && v.Certified >= seq
	})

	if again, err := r.Access("x", spec.OpRead, spec.Nil); err != nil || again != first {
		t.Fatalf("reread at the pinned cut = %v, %v; want the first read's %v", again, err, first)
	}
	if _, err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	expectSnapshot(t, r, "x", spec.Int(7))
	shutdownAndVerify(t, s)
}
