package main

import (
	"net"
	"regexp"
	"strings"
	"testing"
)

func runLoad(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf strings.Builder
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestSelfServeSmoke(t *testing.T) {
	code, out, errs := runLoad(t,
		"-selfserve", "-workers", "4", "-sessions", "5", "-objects", "3", "-seed", "42")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !regexp.MustCompile(`(?m)^backend=moss workers=4 committed=20 ro=\d+ failed=0 server-aborts=\d+ `).MatchString(out) {
		t.Errorf("unexpected tally line:\n%s", out)
	}
	for _, want := range []string{
		"latency: mean=",
		"final certificate: serially correct for T0",
		"online snapshot matches batch SG byte-for-byte",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSelfServeZipfCounter(t *testing.T) {
	code, out, errs := runLoad(t,
		"-selfserve", "-workers", "3", "-sessions", "4", "-spec", "counter",
		"-backend", "undolog", "-zipf", "1.3", "-childprob", "0.5", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(out, "final certificate: serially correct for T0") {
		t.Errorf("no certificate:\n%s", out)
	}
}

var benchLine = regexp.MustCompile(`(?m)^BenchmarkNestedload/c2 \d+ \d+ ns/op$`)

func TestBenchLineFormat(t *testing.T) {
	code, out, errs := runLoad(t,
		"-selfserve", "-workers", "2", "-sessions", "3", "-bench", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !benchLine.MatchString(out) {
		t.Fatalf("no go test -bench style line in:\n%s", out)
	}
}

func TestLoadBadFlags(t *testing.T) {
	if code, _, _ := runLoad(t, "-workers", "0"); code != 2 {
		t.Fatalf("zero workers: exit %d, want 2", code)
	}
	if code, _, errs := runLoad(t); code != 2 || !strings.Contains(errs, "-addr is required") {
		t.Fatalf("missing addr: exit %d, stderr %q", code, errs)
	}
	if code, _, _ := runLoad(t, "-selfserve", "-spec", "nope"); code != 2 {
		t.Fatalf("bad spec: exit %d, want 2", code)
	}
	if code, _, errs := runLoad(t, "-selfserve", "-backend", "nope"); code != 2 || !strings.Contains(errs, "unknown backend") {
		t.Fatalf("bad backend: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := runLoad(t, "-selfserve", "-backend", "mvto", "-spec", "counter"); code != 2 || !strings.Contains(errs, "register") {
		t.Fatalf("mvto non-register spec: exit %d, stderr %q", code, errs)
	}
}

// TestSelfServeBackends: every -backend value runs the closed loop to a
// clean certificate, and a read-heavy mvto run routes all-read
// transactions through the snapshot path.
func TestSelfServeBackends(t *testing.T) {
	for _, backend := range []string{"moss", "undolog", "mvto", "replica"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			code, out, errs := runLoad(t,
				"-selfserve", "-backend", backend, "-workers", "3", "-sessions", "5",
				"-readratio", "0.9", "-seed", "23")
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
			}
			if !strings.Contains(out, "backend="+backend+" ") {
				t.Errorf("tally line missing backend=%s:\n%s", backend, out)
			}
			if !strings.Contains(out, "final certificate: serially correct for T0") {
				t.Errorf("no certificate:\n%s", out)
			}
			if backend == "mvto" && !regexp.MustCompile(`ro=[1-9]`).MatchString(out) {
				t.Errorf("read-heavy mvto run drove no read-only transactions:\n%s", out)
			}
		})
	}
}

// TestSweepBackendsAxis: -sweep-backends adds the object backend as a grid
// axis; each cell's bench name carries its /b segment and certifies.
func TestSweepBackendsAxis(t *testing.T) {
	code, out, errs := runLoad(t,
		"-sweep", "-sweep-backends", "moss,mvto", "-sweep-clients", "2",
		"-sweep-readratios", "0.5", "-sweep-zipfs", "0",
		"-sessions", "3", "-seed", "29")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	for _, cell := range []string{
		"BenchmarkServerSweep/bmoss/c2/r0.50/z0.0 ",
		"BenchmarkServerSweep/bmvto/c2/r0.50/z0.0 ",
	} {
		if !strings.Contains(out, cell) {
			t.Fatalf("sweep missing cell %q:\n%s", cell, out)
		}
	}
	if strings.Contains(errs, "ok=false") {
		t.Fatalf("a backend sweep cell failed certification:\n%s", errs)
	}
	if code, _, errs := runLoad(t, "-sweep", "-sweep-backends", "nope"); code != 2 || !strings.Contains(errs, "-sweep-backends") {
		t.Fatalf("bad backend list: exit %d, stderr %q", code, errs)
	}
}

var sweepLine = regexp.MustCompile(`(?m)^BenchmarkServerSweep/bmoss/c2/r0\.50/z0\.0 \d+ \d+ ns/op \d+ p50-us \d+ p99-us \d+(\.\d+)? tx/s$`)

func TestSweepBenchLines(t *testing.T) {
	code, out, errs := runLoad(t,
		"-sweep", "-sweep-clients", "2", "-sweep-readratios", "0.5", "-sweep-zipfs", "0",
		"-sessions", "3", "-seed", "11")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !sweepLine.MatchString(out) {
		t.Fatalf("no sweep bench line in:\n%s", out)
	}
	if !strings.Contains(errs, "ok=true") {
		t.Fatalf("sweep cell did not report a clean certificate:\n%s", errs)
	}
}

func TestSweepBadLists(t *testing.T) {
	if code, _, errs := runLoad(t, "-sweep", "-sweep-clients", "2,x"); code != 2 || !strings.Contains(errs, "-sweep-clients") {
		t.Fatalf("bad client list: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := runLoad(t, "-sweep", "-sweep-readratios", "0.5,y"); code != 2 || !strings.Contains(errs, "-sweep-readratios") {
		t.Fatalf("bad read-ratio list: exit %d, stderr %q", code, errs)
	}
}

// TestRemoteVerdictDialFailureIsReported: a remote run whose verdict
// connection cannot be made fails with the reason on stderr, not with a
// bare exit 1. The listener takes the worker's connection and closes, so the
// verdict dial finds nobody listening.
func TestRemoteVerdictDialFailureIsReported(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		c, err := lis.Accept()
		lis.Close()
		if err == nil {
			c.Close()
		}
	}()
	code, out, errs := runLoad(t, "-addr", lis.Addr().String(), "-workers", "1", "-sessions", "0")
	<-accepted
	if code != 1 || !strings.Contains(errs, "nestedload: verdict: ") {
		t.Fatalf("exit %d, want 1 with the verdict failure on stderr\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}
