package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

func TestBinaryRoundTripSeed(t *testing.T) {
	tr, b, err := ReadTrace(bytes.NewReader(seedTrace(t)))
	if err != nil {
		t.Fatalf("reading seed trace: %v", err)
	}
	bin := MarshalBinaryTrace(tr, b)
	tr2, b2, err := ReadBinaryTrace(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("decoding binary trace: %v", err)
	}
	if !b2.Equal(b) {
		t.Fatalf("behavior changed across binary round trip:\nbefore:\n%s\nafter:\n%s", b.Format(tr), b2.Format(tr2))
	}
	if tr2.NumTx() != tr.NumTx() || tr2.NumObjects() != tr.NumObjects() {
		t.Fatalf("system type changed: %d/%d tx, %d/%d objects",
			tr.NumTx(), tr2.NumTx(), tr.NumObjects(), tr2.NumObjects())
	}
	for i := 0; i < tr.NumTx(); i++ {
		id := tname.TxID(i)
		if tr.Name(id) != tr2.Name(id) {
			t.Fatalf("tx %d renamed: %s vs %s", i, tr.Name(id), tr2.Name(id))
		}
	}
	if again := MarshalBinaryTrace(tr2, b2); !bytes.Equal(again, bin) {
		t.Fatalf("binary encoding is not a fixed point")
	}
}

func TestBinaryStreamingMatchesFull(t *testing.T) {
	tr, b, err := ReadTrace(bytes.NewReader(seedTrace(t)))
	if err != nil {
		t.Fatalf("reading seed trace: %v", err)
	}
	bin := MarshalBinaryTrace(tr, b)
	d, err := NewBinaryDecoder(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("NewBinaryDecoder: %v", err)
	}
	if d.Tree().NumTx() != tr.NumTx() {
		t.Fatalf("streamed tree has %d tx, want %d", d.Tree().NumTx(), tr.NumTx())
	}
	if d.Remaining() != len(b) {
		t.Fatalf("Remaining() = %d, want %d", d.Remaining(), len(b))
	}
	var streamed Behavior
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		streamed = append(streamed, e)
	}
	if !streamed.Equal(b) {
		t.Fatalf("streamed behavior differs from full decode")
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestReadTraceAuto(t *testing.T) {
	jsonData := seedTrace(t)
	tr, b, err := ReadTraceAuto(bytes.NewReader(jsonData))
	if err != nil {
		t.Fatalf("auto-reading JSON: %v", err)
	}
	bin := MarshalBinaryTrace(tr, b)
	tr2, b2, err := ReadTraceAuto(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("auto-reading binary: %v", err)
	}
	if !b2.Equal(b) || tr2.NumTx() != tr.NumTx() {
		t.Fatalf("auto-dispatch decoded different traces")
	}
	if _, _, err := ReadTraceAuto(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty input accepted")
	}
}

// TestBinaryRejectsCorruption: every truncation of a valid binary trace and
// a sample of corruptions must fail with an error, never a panic or a
// silent success that changes the decoded behavior.
func TestBinaryRejectsCorruption(t *testing.T) {
	tr, b, err := ReadTrace(bytes.NewReader(seedTrace(t)))
	if err != nil {
		t.Fatalf("reading seed trace: %v", err)
	}
	bin := MarshalBinaryTrace(tr, b)

	for n := 0; n < len(bin); n++ {
		if _, _, err := ReadBinaryTrace(bytes.NewReader(bin[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	bad := append([]byte(nil), bin...)
	bad[0] = 'X'
	if _, _, err := ReadBinaryTrace(bytes.NewReader(bad)); err == nil {
		t.Fatalf("bad magic accepted")
	}
	bad = append([]byte(nil), bin...)
	bad[4] = 99 // version
	if _, _, err := ReadBinaryTrace(bytes.NewReader(bad)); err == nil {
		t.Fatalf("bad version accepted")
	}
	if _, _, err := ReadBinaryTrace(bytes.NewReader(append(bin, 0))); err == nil {
		t.Fatalf("trailing data accepted")
	}
	// An event count no input of this size can hold is refused up front, so
	// that a caller reserving Remaining() events reserves nothing absurd.
	header := MarshalBinaryTrace(emptyTree(t), nil)
	header = header[:len(header)-1] // drop the event count, a one-byte 0
	for _, n := range []uint64{1, 1 << 62} {
		if _, err := NewBinaryDecoder(bytes.NewReader(binary.AppendUvarint(header, n))); err == nil {
			t.Fatalf("event count %d with no events accepted", n)
		}
	}
}

// TestRegenerateBinaryFuzzCorpus rewrites the committed seed corpus for
// FuzzBinaryTraceRoundTrip when UPDATE_FUZZ_CORPUS=1; otherwise it checks
// the committed files are current.
func TestRegenerateBinaryFuzzCorpus(t *testing.T) {
	tr, b, err := ReadTrace(bytes.NewReader(seedTrace(t)))
	if err != nil {
		t.Fatalf("reading seed trace: %v", err)
	}
	seeds := map[string][]byte{
		"seed_valid":     MarshalBinaryTrace(tr, b),
		"seed_empty":     MarshalBinaryTrace(emptyTree(t), nil),
		"seed_truncated": MarshalBinaryTrace(tr, b)[:20],
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryTraceRoundTrip")
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus missing (run with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != content {
			t.Fatalf("seed corpus %s is stale (run with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}

func emptyTree(t testing.TB) *tname.Tree {
	t.Helper()
	tr, _, err := ReadTrace(bytes.NewReader([]byte(
		`{"objects":[],"tx":[{"parent":-1,"label":"T0","obj":-1}],"events":[]}`)))
	if err != nil {
		t.Fatalf("building empty tree: %v", err)
	}
	return tr
}

// FuzzBinaryTraceRoundTrip mirrors FuzzTraceRoundTrip for the binary
// codec: any input is either rejected with an error or settles after one
// round trip — decode(data) = (tr, b) implies encode(tr, b) decodes to an
// equal trace and re-encodes byte-identically. Decoding must never panic.
func FuzzBinaryTraceRoundTrip(f *testing.F) {
	{
		tr, b, err := ReadTrace(bytes.NewReader(seedTrace(f)))
		if err != nil {
			f.Fatalf("reading seed trace: %v", err)
		}
		f.Add(MarshalBinaryTrace(tr, b))
		f.Add(MarshalBinaryTrace(tr, b)[:20])
	}
	f.Add([]byte("NSGB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, b, err := ReadBinaryTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected; all we require is no panic
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted binary trace yields invalid tree: %v", err)
		}
		bin := MarshalBinaryTrace(tr, b)
		tr2, b2, err := ReadBinaryTrace(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("reparsing re-encoded trace: %v", err)
		}
		if !b2.Equal(b) {
			t.Fatalf("behavior changed across binary round trip")
		}
		if tr2.NumTx() != tr.NumTx() || tr2.NumObjects() != tr.NumObjects() {
			t.Fatalf("system type changed across binary round trip")
		}
		if again := MarshalBinaryTrace(tr2, b2); !bytes.Equal(again, bin) {
			t.Fatalf("binary encoding is not a fixed point")
		}
		// Cross-codec agreement: the JSON rendering of a binary-decoded
		// trace must decode to the same behavior.
		var jbuf bytes.Buffer
		if err := WriteTrace(&jbuf, tr, b); err != nil {
			t.Fatalf("JSON-rendering binary-decoded trace: %v", err)
		}
		_, b3, err := ReadTrace(&jbuf)
		if err != nil {
			t.Fatalf("JSON round trip of binary-decoded trace: %v", err)
		}
		if !b3.Equal(b) {
			t.Fatalf("JSON and binary codecs disagree")
		}
	})
}

// TestCursorPrimitivesMatchReaders: the cursor must accept exactly what the
// Append* encoders produce, agree with binReader, the reader-based
// reference, on every value kind, and leave the exact remainder so that a
// caller can chain reads through a frame.
func TestCursorPrimitivesMatchReaders(t *testing.T) {
	ref := func(buf []byte) binReader { return binReader{r: bufio.NewReader(bytes.NewReader(buf))} }
	values := []spec.Value{
		spec.Nil, spec.OK, spec.Int(0), spec.Int(-1), spec.Int(1 << 40),
		spec.Bool(true), spec.Bool(false), spec.Str(""), spec.Str("payload"),
	}
	for _, v := range values {
		buf := append(AppendValue(nil, v), 0xEE) // sentinel remainder
		c := NewCursor(buf)
		got, err := c.Value("test")
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		tv, err := ref(buf).readValue("test")
		if err != nil {
			t.Fatalf("%v: reference: %v", v, err)
		}
		if want, _ := decodeValue(tv); got != v || got != want {
			t.Fatalf("Value round trip: got %v, reference %v, want %v", got, want, v)
		}
		if b, err := c.Byte("sentinel"); err != nil || b != 0xEE || c.Len() != 0 {
			t.Fatalf("%v: remainder %x (%v), %d more, want the sentinel alone", v, b, err, c.Len())
		}
	}
	for _, s := range []string{"", "x", "a longer string value"} {
		c := NewCursor(append(AppendString(nil, s), 0xEE))
		if got, err := c.Str("test"); err != nil || got != s || c.Len() != 1 {
			t.Fatalf("Str round trip: got %q, %v, %d left", got, err, c.Len())
		}
	}
	for _, n := range []uint64{0, 1, 127, 128, 1 << 60} {
		c := NewCursor(append(binary.AppendUvarint(nil, n), 0xEE))
		if got, err := c.Uvarint("test"); err != nil || got != n || c.Len() != 1 {
			t.Fatalf("Uvarint round trip: got %d, %v, %d left", got, err, c.Len())
		}
	}
}

// TestCursorRejectsJunk: truncations and forged prefixes must fail with an
// error, never panic or return garbage.
func TestCursorRejectsJunk(t *testing.T) {
	readByte := func(c *Cursor) error { _, err := c.Byte("t"); return err }
	uvarint := func(c *Cursor) error { _, err := c.Uvarint("t"); return err }
	opKind := func(c *Cursor) error { _, err := c.OpKind("t"); return err }
	str := func(c *Cursor) error { _, err := c.Str("t"); return err }
	value := func(c *Cursor) error { _, err := c.Value("t"); return err }
	for _, j := range []struct {
		name string
		buf  []byte
		read func(c *Cursor) error
	}{
		{"empty byte", nil, readByte},
		{"empty uvarint", nil, uvarint},
		{"truncated uvarint", []byte{0x80}, uvarint},
		{"overlong uvarint", bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), uvarint},
		{"op kind 0", []byte{0}, opKind},
		{"op kind 256", []byte{0x80, 0x02}, opKind},
		{"empty str", nil, str},
		{"str with truncated payload", binary.AppendUvarint(nil, 5), str},
		{"forged oversized str length", binary.AppendUvarint(nil, maxBinaryStr+1), str},
		{"empty value", nil, value},
		{"unknown value kind", []byte{200}, value},
		{"int value with no payload", []byte{byte(spec.VInt)}, value},
		{"str value with truncated payload", AppendValue(nil, spec.Str("xy"))[:2], value},
	} {
		c := NewCursor(j.buf)
		if err := j.read(&c); err == nil {
			t.Errorf("%s accepted", j.name)
		}
	}
}

// TestCursorScalarValueAllocs: scalar values must decode without allocating
// — the property that keeps ACCESS responses off the allocator.
func TestCursorScalarValueAllocs(t *testing.T) {
	buf := AppendValue(nil, spec.Int(42))
	if allocs := testing.AllocsPerRun(100, func() {
		c := NewCursor(buf)
		if v, err := c.Value("t"); err != nil || v != spec.Int(42) {
			t.Fatalf("value: %v, %v", v, err)
		}
	}); allocs != 0 {
		t.Fatalf("Value(int) allocates %.1f times, want 0", allocs)
	}
}

// TestBinaryDecoderNextAllocs: streaming an event that carries a scalar
// value or an object allocates nothing — the decoder hands back the event
// it read in place, with no intermediate TraceValue.
func TestBinaryDecoderNextAllocs(t *testing.T) {
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	t1 := tr.Child(tname.Root, "T1")
	for _, e := range []Event{
		NewValEvent(RequestCommit, t1, spec.Int(7)),
		NewValEvent(ReportCommit, t1, spec.OK),
		NewValEvent(ReportCommit, t1, spec.Bool(true)),
		NewInform(InformCommit, t1, x),
		NewInform(InformAbort, t1, x),
	} {
		const runs = 100
		b := make(Behavior, runs+1) // AllocsPerRun calls once more to warm up
		for i := range b {
			b[i] = e
		}
		d, err := NewBinaryDecoder(bytes.NewReader(MarshalBinaryTrace(tr, b)))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if got, err := d.Next(); err != nil || got != e {
				t.Fatalf("Next = %v, %v; want %v", got, err, e)
			}
		})
		if allocs != 0 {
			t.Errorf("Next on %s allocates %.1f times, want 0", e.Kind, allocs)
		}
	}
}
