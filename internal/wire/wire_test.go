package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nestedsg/internal/spec"
)

func frameRoundTrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{{}, {1}, bytes.Repeat([]byte("x"), 4096)} {
		got := frameRoundTrip(t, payload)
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(bufio.NewWriter(&buf), make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted on write")
	}
	// A forged oversized length prefix must be rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadFrame(bufio.NewReader(&buf), nil); err == nil {
		t.Fatal("oversized length prefix accepted on read")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(short)), nil); err == nil {
		t.Fatal("truncated frame body accepted")
	}
}

// sampleRequests is one well-formed request of every shape; the round-trip
// test and FuzzParseRequest's seeds share it.
func sampleRequests() []Request {
	return []Request{
		{Cmd: CmdBegin, Arg: spec.Nil},
		{Cmd: CmdBegin, Arg: spec.Nil, RO: true},
		{Cmd: CmdChild, Arg: spec.Nil},
		{Cmd: CmdChild, Arg: spec.Nil, Named: true, N: 0},
		{Cmd: CmdChild, Arg: spec.Nil, Named: true, N: 1},
		{Cmd: CmdChild, Arg: spec.Nil, Named: true, N: 1 << 63},
		{Cmd: CmdAccess, Obj: "x", Op: spec.OpWrite, Arg: spec.Int(42)},
		{Cmd: CmdAccess, Obj: "long object name", Op: spec.OpRead, Arg: spec.Nil},
		{Cmd: CmdAccess, Obj: "q", Op: spec.OpEnq, Arg: spec.Str("payload")},
		{Cmd: CmdCommit, Arg: spec.Nil},
		{Cmd: CmdAbort, Arg: spec.Nil},
		{Cmd: CmdVerdict, Arg: spec.Nil},
		{Cmd: CmdPing, Arg: spec.Nil},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, q := range sampleRequests() {
		got, err := ParseRequest(AppendRequest(nil, q))
		if err != nil {
			t.Fatalf("%s: %v", q.Cmd, err)
		}
		if got != q {
			t.Fatalf("%s: round trip %+v != %+v", q.Cmd, got, q)
		}
	}
}

// overlongVarint is eleven bytes that binary.Uvarint rejects as an overflow:
// a uvarint holds a uint64 in at most ten.
var overlongVarint = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}

// junkRequests is one malformed request of every kind the parser must
// refuse; the junk test and FuzzParseRequest's seeds share it.
func junkRequests() map[string][]byte {
	return map[string][]byte{
		"empty":          {},
		"invalid cmd":    {0},
		"unknown cmd":    {99},
		"trailing bytes": append(AppendRequest(nil, Request{Cmd: CmdPing}), 1, 2),
		"truncated access": AppendRequest(nil, Request{
			Cmd: CmdAccess, Obj: "x", Op: spec.OpRead, Arg: spec.Nil})[:3],
		"bad op kind": {byte(CmdAccess), 1, 'x', 200, 0},
		// 0x1800: an op kind whose low byte alone, 0, .. 6, would look valid.
		"wide op kind": {byte(CmdAccess), 0, 0x80, 0x30, 0},
		"op kind 257":  {byte(CmdAccess), 1, 'x', 0x81, 0x02, 0},
		"bad RO flag":  {byte(CmdBegin), 2},
		"RO wrong cmd": append(AppendRequest(nil, Request{Cmd: CmdCommit}), 1),

		"child name overlong":  append([]byte{byte(CmdChild)}, overlongVarint...),
		"child name truncated": {byte(CmdChild), 0x80},
		"child name trailing":  append(AppendRequest(nil, Request{Cmd: CmdChild, Named: true, N: 7}), 0),
	}
}

func TestRequestRejectsJunk(t *testing.T) {
	for name, payload := range junkRequests() {
		if _, err := ParseRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// sampleResponse is a well-formed response and the command it answers.
type sampleResponse struct {
	cmd  Cmd
	resp Response
}

// sampleResponses is one response of every shape; the round-trip test and
// FuzzParseResponse's seeds share it.
func sampleResponses() []sampleResponse {
	return []sampleResponse{
		{CmdBegin, Response{Status: StatusOK, Name: "s1.1", Value: spec.Nil}},
		{CmdBegin, Response{Status: StatusOK, Name: "s1.r2", Value: spec.Nil, Snapshot: true}},
		{CmdBegin, Response{Status: StatusOK, Name: "s1.r3", Value: spec.Nil, Snapshot: true,
			View: AppendViewPush(nil, "x", spec.Op{Kind: spec.OpRead, Arg: spec.Nil}, spec.Int(7))}},
		{CmdBegin, Response{Status: StatusOK, Name: "s1.r4", Value: spec.Nil, Snapshot: true,
			View: AppendViewPush(AppendViewDrop(nil, "k0", spec.Op{Kind: spec.OpRead, Arg: spec.Nil}),
				"s", spec.Op{Kind: spec.OpMember, Arg: spec.Int(3)}, spec.Bool(true))}},
		{CmdBegin, Response{Status: StatusOK, Name: "s1.r5", Value: spec.Nil, Snapshot: true, ViewReset: true}},
		{CmdChild, Response{Status: StatusOK, Name: "c7", Value: spec.Nil}},
		{CmdAccess, Response{Status: StatusOK, Value: spec.Int(-3)}},
		{CmdAccess, Response{Status: StatusOK, Value: spec.OK}},
		{CmdCommit, Response{Status: StatusOK, Seq: 123456, Value: spec.Nil}},
		{CmdPing, Response{Status: StatusOK, Value: spec.Nil}},
		{CmdAbort, Response{Status: StatusOK, Value: spec.Nil}},
		{CmdVerdict, Response{Status: StatusOK, Value: spec.Nil, Verdict: Verdict{
			Events: 10, Certified: 9, Acyclic: true, Parents: 2, Nodes: 5, Edges: 4,
			Commits: 3, Aborts: 1}}},
		{CmdCommit, Response{Status: StatusTxAborted, Reason: "deadlock victim", Value: spec.Nil}},
		{CmdAccess, Response{Status: StatusError, Reason: "unknown op", Value: spec.Nil}},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range sampleResponses() {
		got, err := ParseResponse(c.cmd, AppendResponse(nil, c.cmd, c.resp))
		if err != nil {
			t.Fatalf("%s/%s: %v", c.cmd, c.resp.Status, err)
		}
		if !reflect.DeepEqual(got, c.resp) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", c.cmd, got, c.resp)
		}
	}
}

func TestResponseRejectsJunk(t *testing.T) {
	if _, err := ParseResponse(CmdPing, nil); err == nil {
		t.Error("empty response accepted")
	}
	if _, err := ParseResponse(CmdPing, []byte{99}); err == nil {
		t.Error("unknown status accepted")
	}
	trunc := AppendResponse(nil, CmdVerdict, Response{Status: StatusOK, Value: spec.Nil,
		Verdict: Verdict{Events: 300, Certified: 300}})
	if _, err := ParseResponse(CmdVerdict, trunc[:3]); err == nil {
		t.Error("truncated verdict accepted")
	}
	// A byte past the payload, for every payload shape.
	for _, c := range sampleResponses() {
		long := append(AppendResponse(nil, c.cmd, c.resp), 0xff)
		if _, err := ParseResponse(c.cmd, long); err == nil {
			t.Errorf("%s/%s: trailing byte accepted", c.cmd, c.resp.Status)
		}
	}
	if _, err := ParseResponse(CmdChild, []byte{byte(StatusOK), 2, 'k', '1', 0xff}); err == nil {
		t.Error("CHILD answer with a trailing byte accepted")
	}
	// BEGIN's snapshot flag is the one byte 1, or 2 for a reset view: 0 and
	// 3 stand for neither, only whole view entries follow a 1, and nothing
	// follows a 2.
	begin := AppendResponse(nil, CmdBegin, Response{Status: StatusOK, Name: "s1.r1"})
	for name, tail := range map[string][]byte{
		"flag byte 0":               {0},
		"flag byte 3":               {3},
		"a view tag alone":          {1, 1},
		"byte after the reset flag": {2, 0},
	} {
		if resp, err := ParseResponse(CmdBegin, append(begin[:len(begin):len(begin)], tail...)); err == nil {
			t.Errorf("BEGIN answer, %s: accepted as %+v", name, resp)
		}
	}
}

// TestBeginSnapshotFlag: the flag is one byte after BEGIN's name and
// nothing else. An answer without it is the bytes it always was, and no
// other command's answer carries it.
func TestBeginSnapshotFlag(t *testing.T) {
	plain := Response{Status: StatusOK, Name: "s3.r7", Value: spec.Nil}
	flagged := plain
	flagged.Snapshot = true
	want := append(AppendResponse(nil, CmdBegin, plain), 1)
	if got := AppendResponse(nil, CmdBegin, flagged); !bytes.Equal(got, want) {
		t.Fatalf("flagged BEGIN answer encodes to %x, want %x", got, want)
	}
	for _, r := range []Response{plain, flagged} {
		got, err := ParseResponse(CmdBegin, AppendResponse(nil, CmdBegin, r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("BEGIN answer %+v round-tripped to %+v, %v", r, got, err)
		}
	}
	if got, want := AppendResponse(nil, CmdChild, flagged), AppendResponse(nil, CmdChild, plain); !bytes.Equal(got, want) {
		t.Fatalf("CHILD answer carries the snapshot flag: %x, want %x", got, want)
	}
	for _, status := range []Status{StatusTxAborted, StatusError} {
		r := Response{Status: status, Reason: "no", Value: spec.Nil, Snapshot: true}
		if got, err := ParseResponse(CmdBegin, AppendResponse(nil, CmdBegin, r)); err != nil || got.Snapshot {
			t.Fatalf("%s answer to BEGIN parsed as %+v, %v; want no flag", status, got, err)
		}
	}
}

func TestNames(t *testing.T) {
	if CmdAccess.String() != "ACCESS" || StatusTxAborted.String() != "TX_ABORTED" {
		t.Fatal("wire names wrong")
	}
	if !strings.Contains(Cmd(200).String(), "200") || !strings.Contains(Status(200).String(), "200") {
		t.Fatal("out-of-range names should include the raw byte")
	}
}

// TestReadFrameGeometricGrowth: a long-lived session's reuse buffer must
// settle after O(log peak) reallocations, not reallocate on every upward
// size wobble — each growth at least doubles capacity (floor 64, clamped
// to MaxFrame).
func TestReadFrameGeometricGrowth(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	sizes := make([]int, 0, 600)
	for n := 1; n <= 600; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		if err := WriteFrame(w, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var reuse []byte
	grows := 0
	for _, n := range sizes {
		prev := cap(reuse)
		got, err := ReadFrame(r, reuse)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("frame %d: got %d bytes", n, len(got))
		}
		reuse = got
		if cap(reuse) != prev {
			grows++
			if prev > 0 && cap(reuse) < 2*prev {
				t.Fatalf("growth %d -> %d is not geometric", prev, cap(reuse))
			}
		}
	}
	// 1..600 with doubling from a floor of 64: 64, 128, 256, 512, 1024.
	if grows > 5 {
		t.Fatalf("%d reallocations across 600 creeping frames, want <= 5", grows)
	}
	// The clamp: a growth triggered near the cap must not exceed MaxFrame.
	buf.Reset()
	if err := WriteFrame(bufio.NewWriter(&buf), make([]byte, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(&buf), make([]byte, 0, MaxFrame-1))
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) > MaxFrame {
		t.Fatalf("growth overshot the MaxFrame clamp: cap %d", cap(got))
	}
}

// TestHotPathFrameAllocs pins the steady-state allocation count of the
// framed request path at zero: with warmed reuse buffers, write+read+parse
// of a PING request and its response must not allocate — the response going
// out the way the session loop sends it, PutFrame, FrameBuffered, Flush.
// This is the per-frame contract the server session loop and client round
// trip rely on.
func TestHotPathFrameAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	r := bufio.NewReader(&buf)
	out := make([]byte, 0, 64)
	reuse := make([]byte, 0, 64)
	req := Request{Cmd: CmdPing, Arg: spec.Nil}
	resp := Response{Status: StatusOK, Value: spec.Nil}
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		out = AppendRequest(out[:0], req)
		if err := WriteFrame(w, out); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(r, reuse)
		if err != nil {
			t.Fatal(err)
		}
		reuse = payload
		if q, err := ParseRequest(payload); err != nil || q.Cmd != CmdPing {
			t.Fatalf("parse request: %+v, %v", q, err)
		}
		buf.Reset()
		out = AppendResponse(out[:0], CmdPing, resp)
		// The server's write path: put the answer, ask whether another
		// request is already buffered, flush if not.
		if err := PutFrame(w, out); err != nil {
			t.Fatal(err)
		}
		if FrameBuffered(r) {
			t.Fatal("a request frame appeared from nowhere")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if payload, err = ReadFrame(r, reuse); err != nil {
			t.Fatal(err)
		}
		reuse = payload
		if p, err := ParseResponse(CmdPing, payload); err != nil || p.Status != StatusOK {
			t.Fatalf("parse response: %+v, %v", p, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame round trip allocates %.1f times, want 0", allocs)
	}
}
