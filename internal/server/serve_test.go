package server_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

// fakeListener feeds the accept loop a scripted sequence of connections
// and errors, then net.ErrClosed once closed.
type fakeListener struct {
	ch     chan acceptResult
	closed chan struct{}
	once   sync.Once
}

type acceptResult struct {
	conn net.Conn
	err  error
}

func newFakeListener() *fakeListener {
	return &fakeListener{ch: make(chan acceptResult, 8), closed: make(chan struct{})}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	// Drain the script before reporting closure, so a queued connection
	// is never lost to the select's random choice.
	select {
	case r := <-l.ch:
		return r.conn, r.err
	default:
	}
	select {
	case r := <-l.ch:
		return r.conn, r.err
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// rawSession speaks the wire protocol directly over a net.Conn.
type rawSession struct {
	t *testing.T
	c net.Conn
	w *bufio.Writer
	r *bufio.Reader
}

func newRawSession(t *testing.T, c net.Conn) *rawSession {
	return &rawSession{t: t, c: c, w: bufio.NewWriter(c), r: bufio.NewReader(c)}
}

// roundTrip writes payload as one frame and parses the response against
// cmd (use wire.CmdInvalid for malformed frames: the server must answer
// them with a bare error response, not a command-shaped payload).
func (rs *rawSession) roundTrip(payload []byte, cmd wire.Cmd) wire.Response {
	rs.t.Helper()
	if err := wire.WriteFrame(rs.w, payload); err != nil {
		rs.t.Fatalf("write frame: %v", err)
	}
	raw, err := wire.ReadFrame(rs.r, nil)
	if err != nil {
		rs.t.Fatalf("read response frame: %v", err)
	}
	resp, err := wire.ParseResponse(cmd, raw)
	if err != nil {
		rs.t.Fatalf("parse response: %v", err)
	}
	return resp
}

// TestAcceptLoopRetriesTransientErrors: a transient Accept failure (EMFILE,
// ECONNABORTED, ...) must not kill the accept loop — before the fix the
// loop returned on any error, leaving a live, certifying server that
// silently accepted nothing forever.
func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	lis := newFakeListener()
	s := server.New(server.Options{Objects: []string{"x"}})
	s.Serve(lis)

	lis.ch <- acceptResult{err: errors.New("accept tcp: too many open files")}
	srvEnd, cliEnd := net.Pipe()
	lis.ch <- acceptResult{conn: srvEnd}

	// A round trip on the connection queued after the error proves the
	// loop retried instead of returning.
	rs := newRawSession(t, cliEnd)
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdPing}), wire.CmdPing); resp.Status != wire.StatusOK {
		t.Fatalf("ping after transient accept error: status %v", resp.Status)
	}
	if got := s.Metrics().AcceptRetries.Load(); got != 1 {
		t.Fatalf("AcceptRetries = %d, want 1", got)
	}
	cliEnd.Close()
	shutdownAndVerify(t, s)
}

// recordingHooks is the real-time hook set plus a DrainWait recorder.
type recordingHooks struct {
	drains   atomic.Int64
	drainDur atomic.Int64
}

func (h *recordingHooks) Now() time.Time { return time.Now() }
func (h *recordingHooks) LockWait(_ int64, wake <-chan struct{}, d time.Duration) {
	select {
	case <-wake:
	case <-time.After(d):
	}
}
func (h *recordingHooks) CertApply(_, max int) int { return max }
func (h *recordingHooks) CommitWait(int64, int)    {}
func (h *recordingHooks) SessionDone(int64)        {}
func (h *recordingHooks) DrainWait(d time.Duration) {
	h.drains.Add(1)
	h.drainDur.Store(int64(d))
	time.Sleep(d)
}

// TestShutdownDrainPollsThroughHooks: the drain loop's poll cadence must
// go through Hooks.DrainWait (so a seeded harness can drain on its virtual
// clock) — before the fix it slept on a raw time.After.
func TestShutdownDrainPollsThroughHooks(t *testing.T) {
	h := &recordingHooks{}
	s := startServer(t, server.Options{Objects: []string{"x"}, Hooks: h})
	c := dialT(t, s)
	if _, err := c.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	// The open transaction keeps the session busy, so the drain loop must
	// poll — through the hook.
	waitFor(t, "a hooked drain poll", func() bool { return h.drains.Load() >= 1 })
	if got := time.Duration(h.drainDur.Load()); got != 2*time.Millisecond {
		t.Fatalf("DrainWait duration = %v, want the 2ms drain cadence", got)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDoesNotWaitForSnapshotReader: a session in a snapshot
// read-only transaction holds no lock and logged nothing, so a drain closes
// it like an idle connection — without a single poll, nothing aborted and
// nothing logged — instead of waiting out its deadline for a COMMIT.
func TestShutdownDoesNotWaitForSnapshotReader(t *testing.T) {
	h := &recordingHooks{}
	s := startServer(t, server.Options{Backend: "mvto", Objects: []string{"x"}, Hooks: h})
	c := dialT(t, s)
	defer c.Close()
	if _, err := c.BeginRO(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access("x", spec.OpRead, spec.Nil); err != nil {
		t.Fatal(err)
	}
	before := s.LogLen()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil at once", err)
	}
	m := s.Metrics()
	if h.drains.Load() != 0 || m.DrainAborts.Load() != 0 || m.ClientAborts.Load() != 0 || s.LogLen() != before {
		t.Fatalf("%d drain polls, %d drain and %d client aborts, %d events logged; want none",
			h.drains.Load(), m.DrainAborts.Load(), m.ClientAborts.Load(), s.LogLen()-before)
	}
	if _, err := c.Access("x", spec.OpRead, spec.Nil); err == nil {
		t.Fatal("a read on the drained connection was answered")
	}
}

// TestBeginAnswerSnapshotFlag: the BEGIN answer's snapshot flag promises a
// COMMIT answered OK whatever happens, so a client may leave that COMMIT
// owed. It must be set exactly for a read-only BEGIN the backend serves
// from its snapshot store.
func TestBeginAnswerSnapshotFlag(t *testing.T) {
	cases := []struct {
		backend string
		ro      bool
		want    bool
	}{
		{"moss", false, false},
		{"moss", true, false},
		{"undolog", false, false},
		{"undolog", true, false},
		{"mvto", false, false},
		{"mvto", true, true},
	}
	for _, c := range cases {
		s := server.New(server.Options{Backend: c.backend, Objects: []string{"x"}})
		cliEnd, srvEnd := net.Pipe()
		if s.ServeConn(srvEnd) < 0 {
			t.Fatalf("%s: server refused the connection", c.backend)
		}
		rs := newRawSession(t, cliEnd)
		resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdBegin, RO: c.ro}), wire.CmdBegin)
		if resp.Status != wire.StatusOK || resp.Snapshot != c.want {
			t.Errorf("%s BEGIN (ro %v): status %v reason %q snapshot %v, want OK and snapshot %v",
				c.backend, c.ro, resp.Status, resp.Reason, resp.Snapshot, c.want)
		}
		cliEnd.Close()
		s.Kill()
	}
}

// TestMalformedFrameRejectedWithoutKillingSession: a frame that fails
// ParseRequest must be answered StatusError with the parse reason —
// encoded against CmdInvalid, never against whatever half-parsed command
// byte the garbage happened to start with — and the session must survive
// to serve well-formed requests afterwards.
func TestMalformedFrameRejectedWithoutKillingSession(t *testing.T) {
	s := startServer(t, server.Options{Objects: []string{"x"}})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rs := newRawSession(t, nc)

	base := s.Metrics().CommitLatency.Count()

	// An unknown command byte.
	resp := rs.roundTrip([]byte{99}, wire.CmdInvalid)
	if resp.Status != wire.StatusError || !strings.Contains(resp.Reason, "unknown command byte") {
		t.Fatalf("garbage frame: status %v reason %q", resp.Status, resp.Reason)
	}
	// A known command byte with a truncated payload: ParseRequest fails
	// after reading the ACCESS byte, and the response must still be the
	// bare error shape, not an ACCESS-shaped payload.
	resp = rs.roundTrip([]byte{byte(wire.CmdAccess)}, wire.CmdInvalid)
	if resp.Status != wire.StatusError {
		t.Fatalf("truncated access frame: status %v reason %q", resp.Status, resp.Reason)
	}
	// A COMMIT frame with trailing garbage parses far enough to carry
	// Cmd=COMMIT before failing; the error path must not treat it as a
	// commit (the commit-latency metric must not move).
	resp = rs.roundTrip([]byte{byte(wire.CmdCommit), 0xFF}, wire.CmdInvalid)
	if resp.Status != wire.StatusError || !strings.Contains(resp.Reason, "trailing bytes") {
		t.Fatalf("trailing-garbage commit frame: status %v reason %q", resp.Status, resp.Reason)
	}
	if got := s.Metrics().CommitLatency.Count(); got != base {
		t.Fatalf("a malformed commit frame moved CommitLatency (%d -> %d)", base, got)
	}

	// The session is still alive and functional.
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdBegin}), wire.CmdBegin); resp.Status != wire.StatusOK {
		t.Fatalf("begin after malformed frames: status %v reason %q", resp.Status, resp.Reason)
	}
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdChild}), wire.CmdChild); resp.Status != wire.StatusOK {
		t.Fatalf("child after malformed frames: status %v reason %q", resp.Status, resp.Reason)
	}
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdAccess, Obj: "x", Op: spec.OpWrite, Arg: spec.Int(1)}), wire.CmdAccess); resp.Status != wire.StatusOK {
		t.Fatalf("access after malformed frames: status %v reason %q", resp.Status, resp.Reason)
	}
	// A sub-commit neither syncs nor certifies: CommitLatency times only
	// the COMMIT that closes the top-level transaction.
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdCommit}), wire.CmdCommit); resp.Status != wire.StatusOK {
		t.Fatalf("sub-commit after malformed frames: status %v reason %q", resp.Status, resp.Reason)
	}
	if got := s.Metrics().CommitLatency.Count(); got != base {
		t.Fatalf("a sub-commit moved CommitLatency (%d -> %d)", base, got)
	}
	if resp := rs.roundTrip(wire.AppendRequest(nil, wire.Request{Cmd: wire.CmdCommit}), wire.CmdCommit); resp.Status != wire.StatusOK {
		t.Fatalf("commit after malformed frames: status %v reason %q", resp.Status, resp.Reason)
	}
	if got := s.Metrics().CommitLatency.Count(); got != base+1 {
		t.Fatalf("the top-level commit left CommitLatency at %d, want %d", got, base+1)
	}
	nc.Close()
	shutdownAndVerify(t, s)
}
