package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Binary trace format (version 1).
//
// The binary codec is a compact, streamable alternative to the JSON Trace:
//
//	magic   "NSGB" (4 bytes)
//	version uvarint (currently 1)
//	objects uvarint count, then per object: label str, spec str
//	tx      uvarint count, then per entry (entry 0 is T0):
//	          parent svarint, label str, obj svarint (-1 for non-access);
//	          if obj >= 0: op-kind uvarint, arg value
//	events  uvarint count, then per event: kind byte, tx uvarint;
//	          REQUEST_COMMIT / REPORT_COMMIT carry a value;
//	          INFORM_COMMIT / INFORM_ABORT carry obj uvarint
//
// where str is a uvarint length followed by raw bytes, and value is a
// spec.ValueKind byte followed by an svarint (int, bool) or str (str)
// payload. The header is identical in content to the JSON Trace header, so
// decoding rebuilds a Trace and reuses DecodeTrace for validation; the
// event section can additionally be consumed one event at a time through
// BinaryDecoder without materializing a Behavior.

// binaryMagic identifies a binary trace stream.
var binaryMagic = [4]byte{'N', 'S', 'G', 'B'}

// binaryVersion is the current format version.
const binaryVersion = 1

// maxBinaryStr bounds decoded string lengths so corrupt or adversarial
// length prefixes fail fast instead of allocating gigabytes.
const maxBinaryStr = 1 << 20

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v spec.Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case spec.VInt, spec.VBool:
		buf = binary.AppendVarint(buf, v.Int)
	case spec.VStr:
		buf = appendStr(buf, v.Str)
	default:
		// VNil and VOK carry no payload beyond the kind byte.
	}
	return buf
}

// MarshalBinaryTrace encodes the tree and behavior in the binary format.
func MarshalBinaryTrace(tr *tname.Tree, b Behavior) []byte {
	buf := append([]byte(nil), binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, binaryVersion)

	buf = binary.AppendUvarint(buf, uint64(tr.NumObjects()))
	for x := tname.ObjID(0); int(x) < tr.NumObjects(); x++ {
		buf = appendStr(buf, tr.ObjectLabel(x))
		buf = appendStr(buf, tr.Spec(x).Name())
	}

	buf = binary.AppendUvarint(buf, uint64(tr.NumTx()))
	for id := tname.TxID(0); int(id) < tr.NumTx(); id++ {
		buf = binary.AppendVarint(buf, int64(tr.Parent(id)))
		buf = appendStr(buf, tr.Label(id))
		if !tr.IsAccess(id) {
			buf = binary.AppendVarint(buf, int64(tname.NoObj))
			continue
		}
		op := tr.AccessOp(id)
		buf = binary.AppendVarint(buf, int64(tr.AccessObject(id)))
		buf = binary.AppendUvarint(buf, uint64(op.Kind))
		buf = appendValue(buf, op.Arg)
	}

	buf = binary.AppendUvarint(buf, uint64(len(b)))
	for _, e := range b {
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendUvarint(buf, uint64(e.Tx))
		switch e.Kind {
		case RequestCommit, ReportCommit:
			buf = appendValue(buf, e.Val)
		case InformCommit, InformAbort:
			buf = binary.AppendUvarint(buf, uint64(e.Obj))
		default:
			// Every other kind is fully described by (kind, tx).
		}
	}
	return buf
}

// WriteBinaryTrace writes the behavior in the binary trace format.
func WriteBinaryTrace(w io.Writer, tr *tname.Tree, b Behavior) error {
	_, err := w.Write(MarshalBinaryTrace(tr, b))
	return err
}

// binReader wraps the byte-oriented reads the decoder needs, turning any
// short read into a decode error.
type binReader struct {
	r *bufio.Reader
}

func (br binReader) readStr(what string) (string, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return "", fmt.Errorf("trace: binary: %s length: %w", what, err)
	}
	if n > maxBinaryStr {
		return "", fmt.Errorf("trace: binary: %s length %d exceeds limit", what, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br.r, b); err != nil {
		return "", fmt.Errorf("trace: binary: %s: %w", what, err)
	}
	return string(b), nil
}

func (br binReader) readUvarint(what string) (uint64, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return 0, fmt.Errorf("trace: binary: %s: %w", what, err)
	}
	return n, nil
}

func (br binReader) readVarint(what string) (int64, error) {
	n, err := binary.ReadVarint(br.r)
	if err != nil {
		return 0, fmt.Errorf("trace: binary: %s: %w", what, err)
	}
	return n, nil
}

func (br binReader) readByte(what string) (byte, error) {
	b, err := br.r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("trace: binary: %s: %w", what, err)
	}
	return b, nil
}

// readValue decodes a value payload into its JSON-trace form so that the
// shared decodeValue path rebuilds the spec.Value through the constructors.
func (br binReader) readValue(what string) (*TraceValue, error) {
	kb, err := br.readByte(what + " kind")
	if err != nil {
		return nil, err
	}
	name, ok := valueKindNames[spec.ValueKind(kb)]
	if !ok {
		return nil, fmt.Errorf("trace: binary: %s has unknown value kind %d", what, kb)
	}
	tv := &TraceValue{Kind: name}
	switch spec.ValueKind(kb) {
	case spec.VInt, spec.VBool:
		tv.Int, err = br.readVarint(what + " int")
	case spec.VStr:
		tv.Str, err = br.readStr(what + " str")
	default:
		// VNil and VOK carry no payload beyond the kind byte.
	}
	if err != nil {
		return nil, err
	}
	return tv, nil
}

// readHeader decodes the object and transaction tables into a Trace header
// and validates them through DecodeTrace (with no events), returning the
// interned tree.
func (br binReader) readHeader() (*tname.Tree, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br.r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: binary: magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: binary: bad magic %q", magic[:])
	}
	ver, err := br.readUvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("trace: binary: unsupported version %d", ver)
	}

	var t Trace
	nObj, err := br.readUvarint("object count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nObj; i++ {
		var to TraceObject
		if to.Label, err = br.readStr("object label"); err != nil {
			return nil, err
		}
		if to.Spec, err = br.readStr("object spec"); err != nil {
			return nil, err
		}
		t.Objects = append(t.Objects, to)
	}

	nTx, err := br.readUvarint("tx count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTx; i++ {
		var tt TraceTx
		parent, err := br.readVarint("tx parent")
		if err != nil {
			return nil, err
		}
		tt.Parent = int32(parent)
		if tt.Label, err = br.readStr("tx label"); err != nil {
			return nil, err
		}
		obj, err := br.readVarint("tx obj")
		if err != nil {
			return nil, err
		}
		tt.Obj = int32(obj)
		if obj >= 0 {
			opk, err := br.readUvarint("tx op")
			if err != nil {
				return nil, err
			}
			if opk == 0 || spec.OpKind(opk) > spec.OpDeq {
				return nil, fmt.Errorf("trace: binary: tx %d has unknown op kind %d", i, opk)
			}
			tt.Op = spec.OpKind(opk).String()
			arg, err := br.readValue("tx op arg")
			if err != nil {
				return nil, err
			}
			if arg.Kind != "nil" {
				tt.OpArg = arg
			}
		}
		t.Tx = append(t.Tx, tt)
	}

	tr, _, err := DecodeTrace(&t)
	return tr, err
}

// BinaryDecoder decodes a binary trace incrementally: the header (system
// type) is read eagerly by NewBinaryDecoder, then Next yields one validated
// event at a time, so arbitrarily long behaviors can feed an incremental
// checker without ever materializing a full Behavior.
type BinaryDecoder struct {
	br   binReader
	tr   *tname.Tree
	left uint64
	err  error
}

// NewBinaryDecoder reads the header from r and prepares to stream events.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	br := binReader{r: bufio.NewReader(r)}
	tr, err := br.readHeader()
	if err != nil {
		return nil, err
	}
	n, err := br.readUvarint("event count")
	if err != nil {
		return nil, err
	}
	return &BinaryDecoder{br: br, tr: tr, left: n}, nil
}

// Tree returns the system type decoded from the header.
func (d *BinaryDecoder) Tree() *tname.Tree { return d.tr }

// Remaining reports how many events have not yet been decoded.
func (d *BinaryDecoder) Remaining() int { return int(d.left) }

// Next decodes and validates the next event. It returns io.EOF after the
// last event; any other error is sticky.
func (d *BinaryDecoder) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	if d.left == 0 {
		d.err = io.EOF
		return Event{}, io.EOF
	}
	e, err := d.next()
	if err != nil {
		d.err = err
		return Event{}, err
	}
	d.left--
	return e, nil
}

func (d *BinaryDecoder) next() (Event, error) {
	kb, err := d.br.readByte("event kind")
	if err != nil {
		return Event{}, err
	}
	kind := Kind(kb)
	if kind < Create || kind > InformAbort {
		return Event{}, fmt.Errorf("trace: binary: unknown event kind %d", kb)
	}
	txu, err := d.br.readUvarint("event tx")
	if err != nil {
		return Event{}, err
	}
	if txu >= uint64(d.tr.NumTx()) {
		return Event{}, fmt.Errorf("trace: binary: event names unknown tx %d", txu)
	}
	e := Event{Kind: kind, Tx: tname.TxID(txu), Val: spec.Nil, Obj: tname.NoObj}
	switch kind {
	case RequestCommit, ReportCommit:
		tv, err := d.br.readValue("event val")
		if err != nil {
			return Event{}, err
		}
		if e.Val, err = decodeValue(tv); err != nil {
			return Event{}, err
		}
	case InformCommit, InformAbort:
		obju, err := d.br.readUvarint("event obj")
		if err != nil {
			return Event{}, err
		}
		if obju >= uint64(d.tr.NumObjects()) {
			return Event{}, fmt.Errorf("trace: binary: event informs unknown object %d", obju)
		}
		e.Obj = tname.ObjID(obju)
	default:
		// Every other kind is fully described by (kind, tx); the kind
		// range was checked above.
	}
	return e, nil
}

// ReadBinaryTrace parses a binary trace in full. It is the same code path
// as streaming through BinaryDecoder, so the two cannot disagree on
// validity.
func ReadBinaryTrace(r io.Reader) (*tname.Tree, Behavior, error) {
	d, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, nil, err
	}
	var b Behavior
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		b = append(b, e)
	}
	// Trailing garbage after the declared event count is a malformed trace,
	// not silent success.
	if _, err := d.br.r.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("trace: binary: trailing data after events")
	}
	return d.tr, b, nil
}

// The exported Append/Read helpers below expose the NSGB wire primitives
// (uvarint-length-prefixed strings and kind-tagged values) to other framed
// protocols in this module — internal/wire speaks them verbatim — so the
// module has exactly one binary encoding of strings and spec.Values.

// AppendString appends a uvarint-length-prefixed string.
func AppendString(buf []byte, s string) []byte { return appendStr(buf, s) }

// AppendValue appends a kind-tagged value in the NSGB value encoding.
func AppendValue(buf []byte, v spec.Value) []byte { return appendValue(buf, v) }

// ReadString decodes a uvarint-length-prefixed string; what names the field
// in decode errors.
func ReadString(r *bufio.Reader, what string) (string, error) {
	return binReader{r: r}.readStr(what)
}

// CutUvarint decodes a uvarint from the front of b and returns the rest.
func CutUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: %s: truncated uvarint", what)
	}
	return v, b[n:], nil
}

// CutBytes decodes a uvarint-length-prefixed byte string from the front of
// b, returning the payload as a sub-slice of b (no copy) and the rest. The
// sub-slice aliases b and is only valid while b is.
func CutBytes(b []byte, what string) ([]byte, []byte, error) {
	// Not CutUvarint(b, what+" length"): the concatenation would cost every
	// string field an allocation for an error message it almost never needs.
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: %s length: truncated uvarint", what)
	}
	rest := b[k:]
	if n > maxBinaryStr {
		return nil, nil, fmt.Errorf("wire: %s length %d exceeds limit", what, n)
	}
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("wire: %s: truncated payload", what)
	}
	return rest[:n], rest[n:], nil
}

// CutString decodes a uvarint-length-prefixed string from the front of b and
// returns the rest. The string is copied out of b (strings are immutable),
// so it is the one unavoidable allocation of a string-carrying frame.
func CutString(b []byte, what string) (string, []byte, error) {
	v, rest, err := CutBytes(b, what)
	if err != nil {
		return "", nil, err
	}
	return string(v), rest, nil
}

// CutValue decodes a kind-tagged value in the NSGB value encoding from the
// front of b and returns the rest. Like ReadValue it rebuilds the payload
// through the spec constructors, but it reads the byte slice directly — no
// intermediate reader or TraceValue — so int/bool/nil/ok values decode
// without allocating.
func CutValue(b []byte, what string) (spec.Value, []byte, error) {
	if len(b) == 0 {
		return spec.Nil, nil, fmt.Errorf("wire: %s kind: truncated value", what)
	}
	kind, rest := spec.ValueKind(b[0]), b[1:]
	switch kind {
	case spec.VNil:
		return spec.Nil, rest, nil
	case spec.VOK:
		return spec.OK, rest, nil
	case spec.VInt, spec.VBool:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return spec.Nil, nil, fmt.Errorf("wire: %s int: truncated varint", what)
		}
		if kind == spec.VBool {
			return spec.Bool(v != 0), rest[n:], nil
		}
		return spec.Int(v), rest[n:], nil
	case spec.VStr:
		s, rest, err := CutString(rest, what+" str")
		if err != nil {
			return spec.Nil, nil, err
		}
		return spec.Str(s), rest, nil
	default:
		return spec.Nil, nil, fmt.Errorf("wire: %s has unknown value kind %d", what, b[0])
	}
}

// ReadValue decodes a kind-tagged value in the NSGB value encoding. The
// payload is rebuilt through the spec constructors, exactly as the trace
// decoder does.
func ReadValue(r *bufio.Reader, what string) (spec.Value, error) {
	tv, err := binReader{r: r}.readValue(what)
	if err != nil {
		return spec.Nil, err
	}
	return decodeValue(tv)
}

// ReadTraceAuto sniffs the stream and dispatches to the binary or JSON
// reader: binary traces start with the NSGB magic, JSON traces with
// whitespace or '{'.
func ReadTraceAuto(r io.Reader) (*tname.Tree, Behavior, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err != nil && len(head) == 0 {
		return nil, nil, fmt.Errorf("trace: read: %w", err)
	}
	if bytes.Equal(head, binaryMagic[:]) {
		return ReadBinaryTrace(br)
	}
	return ReadTrace(br)
}
