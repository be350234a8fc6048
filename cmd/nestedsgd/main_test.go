package main

import (
	"os"
	"strings"
	"syscall"
	"testing"

	"nestedsg/internal/client"
	"nestedsg/internal/spec"
)

// startDaemon runs the daemon main loop in a goroutine and returns the bound
// address, the signal channel that triggers drain, and the exit-code channel.
func startDaemon(t *testing.T, args ...string) (string, chan os.Signal, <-chan int, *strings.Builder) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	code := make(chan int, 1)
	var out strings.Builder
	go func() {
		var errBuf strings.Builder
		c := run(args, &out, &errBuf, sig, ready)
		if errBuf.Len() > 0 {
			t.Log("stderr:", errBuf.String())
		}
		code <- c
	}()
	addr, ok := <-ready, true
	if addr == "" {
		ok = false
	}
	if !ok {
		t.Fatal("daemon never became ready")
	}
	return addr, sig, code, &out
}

func TestDaemonServeDrainVerify(t *testing.T) {
	addr, sig, code, out := startDaemon(t, "-addr", "127.0.0.1:0", "-objects", "x,y")

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTx(5, func(tx *client.Tx) error {
		if _, err := tx.Access("x", spec.OpWrite, spec.Int(1)); err != nil {
			return err
		}
		_, err := tx.Access("y", spec.OpRead, spec.Nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	sig <- syscall.SIGTERM
	if got := <-code; got != 0 {
		t.Fatalf("daemon exited %d\noutput:\n%s", got, out.String())
	}
	for _, want := range []string{
		"nestedsgd: listening on",
		"draining...",
		"final certificate: serially correct for T0",
		"online snapshot matches batch SG byte-for-byte",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDaemonWalRestart: with -wal, the daemon replays the durable log on
// boot. A second incarnation over the same directory reports the first
// run's events in its recovery summary and keeps serving.
func TestDaemonWalRestart(t *testing.T) {
	dir := t.TempDir()

	addr, sig, code, out := startDaemon(t, "-addr", "127.0.0.1:0", "-objects", "x", "-wal", dir)
	if !strings.Contains(out.String(), "recovered 0 events") {
		t.Errorf("fresh boot missing empty recovery summary:\n%s", out.String())
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTx(3, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(42))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sig <- syscall.SIGTERM
	if got := <-code; got != 0 {
		t.Fatalf("first incarnation exited %d\noutput:\n%s", got, out.String())
	}

	addr2, sig2, code2, out2 := startDaemon(t, "-addr", "127.0.0.1:0", "-wal", dir)
	if !strings.Contains(out2.String(), "audit: ok") ||
		strings.Contains(out2.String(), "recovered 0 events") {
		t.Errorf("restart did not replay the first run's log:\n%s", out2.String())
	}
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RunTx(3, func(tx *client.Tx) error {
		_, err := tx.Access("x", spec.OpWrite, spec.Int(43))
		return err
	}); err != nil {
		t.Fatalf("transaction after recovery: %v", err)
	}
	c2.Close()
	sig2 <- syscall.SIGTERM
	if got := <-code2; got != 0 {
		t.Fatalf("second incarnation exited %d\noutput:\n%s", got, out2.String())
	}
	for _, want := range []string{
		"final certificate: serially correct for T0",
		"online snapshot matches batch SG byte-for-byte",
	} {
		if !strings.Contains(out2.String(), want) {
			t.Errorf("restart output missing %q:\n%s", want, out2.String())
		}
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out, errBuf strings.Builder
	if got := run([]string{"-backend", "nope"}, &out, &errBuf, nil, nil); got != 2 {
		t.Fatalf("unknown backend: exit %d, want 2", got)
	}
	if !strings.Contains(errBuf.String(), "unknown backend") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
	errBuf.Reset()
	if got := run([]string{"-spec", "nope"}, &out, &errBuf, nil, nil); got != 2 {
		t.Fatalf("unknown spec: exit %d, want 2", got)
	}
}

// TestDaemonHasNoReplicaBackend: quorum replication runs offline only
// (nestedrun -protocol replica), so the daemon refuses the backend name and
// the quorum flags. A daemon that did start drains at once on the closed
// signal channel and exits 0.
func TestDaemonHasNoReplicaBackend(t *testing.T) {
	sig := make(chan os.Signal)
	close(sig)
	for _, refused := range [][]string{{"-backend", "replica"}, {"-replica-copies", "3"}} {
		args := append([]string{"-addr", "127.0.0.1:0"}, refused...)
		var out, errBuf strings.Builder
		if got := run(args, &out, &errBuf, sig, nil); got != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, got, errBuf.String())
		}
	}
}
