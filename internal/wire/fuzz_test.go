package wire

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"

	"nestedsg/internal/spec"
)

// FuzzParseRequest: the request parser faces the network. It must never
// panic, and what it accepts must re-encode to bytes that parse to the same
// request, that re-encoding being a fixed point. Not "the same bytes": a
// non-minimal varint is accepted and re-encodes shorter.
func FuzzParseRequest(f *testing.F) {
	for _, q := range sampleRequests() {
		f.Add(AppendRequest(nil, q))
	}
	for _, junk := range junkRequests() {
		f.Add(junk)
	}
	f.Add([]byte{byte(CmdChild), 0x80, 0x00}) // n = 0, not minimal
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseRequest(data)
		if err != nil {
			return
		}
		enc := AppendRequest(nil, q)
		again, err := ParseRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request %+v rejected: %v", q, err)
		}
		if again != q {
			t.Fatalf("re-encoding changed the request: %+v, was %+v", again, q)
		}
		if enc2 := AppendRequest(nil, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", enc, enc2)
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the parser a client runs on what
// a server sends; the command it answers selects the payload.
func FuzzParseResponse(f *testing.F) {
	for _, c := range sampleResponses() {
		f.Add(byte(c.cmd), AppendResponse(nil, c.cmd, c.resp))
	}
	f.Add(byte(CmdPing), []byte{})
	f.Add(byte(CmdPing), []byte{99})
	f.Add(byte(CmdVerdict), []byte{byte(StatusOK), 0xac, 0x02, 0xac})
	f.Add(byte(CmdChild), []byte{byte(StatusOK), 2, 'k', '1', 0xff})
	f.Add(byte(CmdCommit), append([]byte{byte(StatusOK)}, overlongVarint...))
	f.Add(byte(CmdBegin), []byte{byte(StatusOK), 4, 's', '1', '.', '1', 3}) // no such flag
	read := spec.Op{Kind: spec.OpRead, Arg: spec.Nil}
	begin := []byte{byte(StatusOK), 4, 's', '1', '.', '1', flagSnapshot}
	push := AppendViewPush(nil, "x", read, spec.Str("seven"))
	drop := AppendViewDrop(nil, "y", read)
	f.Add(byte(CmdBegin), append(append(begin, push...), drop...))             // a drop after a push
	f.Add(byte(CmdBegin), append(begin, push[:len(push)-1]...))                // a push cut short
	f.Add(byte(CmdBegin), append(append(begin, drop...), 2))                   // no such entry tag
	f.Add(byte(CmdBegin), []byte{byte(StatusOK), 4, 's', '1', '.', '1', 2, 0}) // a reset carries no delta
	f.Fuzz(func(t *testing.T, cmd byte, data []byte) {
		resp, err := ParseResponse(Cmd(cmd), data)
		if err != nil {
			return
		}
		enc := AppendResponse(nil, Cmd(cmd), resp)
		again, err := ParseResponse(Cmd(cmd), enc)
		if err != nil {
			t.Fatalf("re-encoded %s response %+v rejected: %v", Cmd(cmd), resp, err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("re-encoding changed the %s response: %+v, was %+v", Cmd(cmd), again, resp)
		}
		if enc2 := AppendResponse(nil, Cmd(cmd), again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", enc, enc2)
		}
	})
}

// TestChildNameBoundaries walks CHILD's name number across every width a
// uvarint has: the last value of each encoded length and the first of the
// next, up to the full uint64, and then what lies beyond it.
func TestChildNameBoundaries(t *testing.T) {
	fits := []struct {
		n     uint64
		bytes int // encoded length of n
	}{
		{0, 1},
		{1<<7 - 1, 1}, {1 << 7, 2},
		{1<<14 - 1, 2}, {1 << 14, 3},
		{1<<21 - 1, 3}, {1 << 21, 4},
		{1<<28 - 1, 4}, {1 << 28, 5},
		{math.MaxUint32, 5},
		{1<<35 - 1, 5}, {1 << 35, 6},
		{1<<42 - 1, 6}, {1 << 42, 7},
		{1<<49 - 1, 7}, {1 << 49, 8},
		{1<<56 - 1, 8}, {1 << 56, 9},
		{math.MaxInt64, 9}, {1 << 63, 10},
		{math.MaxUint64, 10},
	}
	for _, c := range fits {
		enc := AppendRequest(nil, Request{Cmd: CmdChild, Named: true, N: c.n})
		if len(enc) != 1+c.bytes {
			t.Errorf("CHILD %d encodes to %d bytes, want %d", c.n, len(enc), 1+c.bytes)
		}
		q, err := ParseRequest(enc)
		if err != nil || !q.Named || q.N != c.n {
			t.Errorf("CHILD %d parsed as %+v, %v", c.n, q, err)
		}
		// One byte short of the number is a truncated name, never a
		// smaller one — except the bare command byte, the label-less CHILD.
		short, err := ParseRequest(enc[:len(enc)-1])
		if c.bytes == 1 {
			if err != nil || short.Named {
				t.Errorf("CHILD %d less its only name byte parsed as %+v, %v; want label-less CHILD", c.n, short, err)
			}
		} else if err == nil {
			t.Errorf("CHILD %d cut short accepted as %+v", c.n, short)
		}
	}

	beyond := map[string][]byte{
		// Ten bytes whose last carries more than the one bit uint64 has left.
		"2^64":          {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
		"eleven bytes":  overlongVarint,
		"never ends":    bytes.Repeat([]byte{0xff}, 16),
		"second number": {0x01, 0x01},
	}
	for name, tail := range beyond {
		if q, err := ParseRequest(append([]byte{byte(CmdChild)}, tail...)); err == nil {
			t.Errorf("%s: accepted as %+v", name, q)
		}
	}

	// Non-minimal encodings are accepted — binary.Uvarint does not mind —
	// and mean the number they spell.
	q, err := ParseRequest([]byte{byte(CmdChild), 0x81, 0x80, 0x00})
	if err != nil || !q.Named || q.N != 1 {
		t.Errorf("non-minimal CHILD 1 parsed as %+v, %v", q, err)
	}
}

// TestPutFrameBuffers: PutFrame leaves the frames in the writer's buffer,
// and they reach the connection together, intact, at the next flush.
func TestPutFrameBuffers(t *testing.T) {
	var conn bytes.Buffer
	w := bufio.NewWriter(&conn)
	payloads := [][]byte{{1}, {}, bytes.Repeat([]byte("y"), 300)}
	for _, p := range payloads {
		if err := PutFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if conn.Len() != 0 {
		t.Fatalf("PutFrame wrote %d bytes through to the connection", conn.Len())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&conn)
	for i, p := range payloads {
		got, err := ReadFrame(r, nil)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, %v; want %d", i, len(got), err, len(p))
		}
	}
	if err := PutFrame(w, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameBuffered: the question the server asks before it decides whether
// to flush. Only a whole well-formed frame already in the buffer counts; a
// prefix, a partial payload or a prefix no frame can have does not, and the
// check itself never reads from the connection.
func TestFrameBuffered(t *testing.T) {
	frame := func(n int) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		if err := WriteFrame(w, bytes.Repeat([]byte("z"), n)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	big := frame(300) // two-byte length prefix
	cases := []struct {
		name     string
		buffered []byte
		want     bool
	}{
		{"nothing", nil, false},
		{"empty frame", frame(0), true},
		{"one frame", frame(5), true},
		{"frame and a half", append(frame(5), frame(5)[:3]...), true},
		{"half a prefix", big[:1], false},
		{"prefix only", big[:2], false},
		{"payload one short", big[:len(big)-1], false},
		{"two-byte prefix, whole", big, true},
		{"prefix over MaxFrame", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false},
		{"prefix overflows", append(append([]byte{}, overlongVarint...), 1, 2, 3), false},
	}
	for _, c := range cases {
		// The source counts its reads: a FrameBuffered that went to the
		// connection for more, as a blocking Peek would, shows as a second.
		src := &onceReader{data: c.buffered}
		r := bufio.NewReader(src)
		if len(c.buffered) > 0 {
			if _, err := r.Peek(1); err != nil { // pull the bytes into the buffer
				t.Fatal(err)
			}
		}
		if got := FrameBuffered(r); got != c.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", c.name, got, c.want)
		}
		if r.Buffered() != len(c.buffered) {
			t.Errorf("%s: FrameBuffered consumed input: %d of %d bytes left", c.name, r.Buffered(), len(c.buffered))
		}
		if src.reads > 1 {
			t.Errorf("%s: FrameBuffered read from the connection", c.name)
		}
	}
}

// onceReader hands out data in its first Read and nothing afterwards,
// counting the calls.
type onceReader struct {
	data  []byte
	reads int
}

func (o *onceReader) Read(p []byte) (int, error) {
	o.reads++
	if o.reads > 1 {
		return 0, nil
	}
	return copy(p, o.data), nil
}
