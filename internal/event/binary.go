package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"

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
// payload. The header is identical in content to the JSON Trace header, and
// both decoders run each of its entries through the same checks (nameTable,
// trace.go), so the two codecs accept the same system types and refuse the
// rest with the same message; the binary one defines each name as it reads
// it, with no Trace in between. The event section can additionally be
// consumed one event at a time through BinaryDecoder without materializing
// a Behavior.
//
// The same primitives frame the server's WAL records (wal.go), which reuse
// the transaction-entry and event encodings verbatim, and the network
// protocol (internal/wire). Cursor is the one reader of all three.

// binaryMagic identifies a binary trace stream.
var binaryMagic = [4]byte{'N', 'S', 'G', 'B'}

// binaryVersion is the current format version.
const binaryVersion = 1

// maxBinaryStr bounds decoded string lengths so corrupt or adversarial
// length prefixes fail fast instead of allocating gigabytes.
const maxBinaryStr = 1 << 20

// AppendString appends a uvarint-length-prefixed string, the encoding
// Cursor.Str reads.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendValue appends a kind-tagged value, the encoding Cursor.Value reads.
func AppendValue(buf []byte, v spec.Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case spec.VInt, spec.VBool:
		buf = binary.AppendVarint(buf, v.Int)
	case spec.VStr:
		buf = AppendString(buf, v.Str)
	default:
		// VNil and VOK carry no payload beyond the kind byte.
	}
	return buf
}

// appendTxDef appends a transaction entry: parent svarint, label str, obj
// svarint and, for an access (obj >= 0), op kind uvarint and arg value.
//
//sgvet:hotpath
func appendTxDef(buf []byte, parent tname.TxID, label string, obj tname.ObjID, op spec.Op) []byte {
	buf = binary.AppendVarint(buf, int64(parent))
	buf = AppendString(buf, label)
	buf = binary.AppendVarint(buf, int64(obj))
	if obj >= 0 {
		buf = binary.AppendUvarint(buf, uint64(op.Kind))
		buf = AppendValue(buf, op.Arg)
	}
	return buf
}

// appendEvent appends one event: kind byte, tx uvarint, then a value for
// REQUEST_COMMIT/REPORT_COMMIT or an object uvarint for informs.
//
//sgvet:hotpath
func appendEvent(buf []byte, e Event) []byte {
	buf = append(buf, byte(e.Kind))
	buf = binary.AppendUvarint(buf, uint64(e.Tx))
	switch e.Kind {
	case RequestCommit, ReportCommit:
		buf = AppendValue(buf, e.Val)
	case InformCommit, InformAbort:
		buf = binary.AppendUvarint(buf, uint64(e.Obj))
	default:
		// Every other kind is fully described by (kind, tx).
	}
	return buf
}

// MarshalBinaryTrace encodes the tree and behavior in the binary format.
func MarshalBinaryTrace(tr *tname.Tree, b Behavior) []byte {
	buf := append([]byte(nil), binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, binaryVersion)

	buf = binary.AppendUvarint(buf, uint64(tr.NumObjects()))
	for x := tname.ObjID(0); int(x) < tr.NumObjects(); x++ {
		buf = AppendString(buf, tr.ObjectLabel(x))
		buf = AppendString(buf, tr.Spec(x).Name())
	}

	buf = binary.AppendUvarint(buf, uint64(tr.NumTx()))
	for id := tname.TxID(0); int(id) < tr.NumTx(); id++ {
		obj, op := tname.NoObj, spec.Op{}
		if tr.IsAccess(id) {
			obj, op = tr.AccessObject(id), tr.AccessOp(id)
		}
		buf = appendTxDef(buf, tr.Parent(id), tr.Label(id), obj, op)
	}

	buf = binary.AppendUvarint(buf, uint64(len(b)))
	for _, e := range b {
		buf = appendEvent(buf, e)
	}
	return buf
}

// WriteBinaryTrace writes the behavior in the binary trace format.
func WriteBinaryTrace(w io.Writer, tr *tname.Tree, b Behavior) error {
	_, err := w.Write(MarshalBinaryTrace(tr, b))
	return err
}

// Cursor reads the NSGB primitives off the front of a byte slice: the one
// decoder of binary traces, WAL record payloads and wire frames. It reads in
// place — no reader, buffer or intermediate value behind it — so a field
// costs an allocation only when it is a string. Every method names its
// field, what, in the error it returns; the verdicts on a short or
// overlong varint are binary.ReadUvarint's.
type Cursor struct {
	// b is never re-sliced: reading moves off, an integer, so that it
	// stores no pointer and costs no write barrier while the collector
	// runs.
	b   []byte
	off int
	// copied, when not empty, is a copy of b: a string is then cut out of
	// it instead of copied on its own. The trace header reads its
	// transaction table so (header), with one allocation for all labels.
	copied string
	// views makes a label a view of b instead of a copy (label), for a
	// caller that copies it on (DecodeWalRecord).
	views bool
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Len reports how many bytes are left unread.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// nsgbErr names a decode failure: what is the field, part a suffix to it
// (taken apart so that the happy path never concatenates).
func nsgbErr(what, part string, err error) error {
	return fmt.Errorf("nsgb: %s%s: %w", what, part, err)
}

// errVarintOverflow has the text of encoding/binary's unexported overflow
// error, which binary.ReadUvarint returns.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// Byte reads one byte.
func (c *Cursor) Byte(what string) (byte, error) {
	if c.off == len(c.b) {
		return 0, nsgbErr(what, "", io.EOF)
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

// uvarint reads a uvarint and returns a bare error for the caller to name.
// Ten continuation bytes are an overflow even when nothing follows them
// (binary.Uvarint alone calls that a short buffer), and running out
// mid-number is io.ErrUnexpectedEOF.
func (c *Cursor) uvarint() (uint64, error) {
	rest := c.b[c.off:]
	v, n := binary.Uvarint(rest)
	switch {
	case n > 0:
		c.off += n
		return v, nil
	case n < 0 || len(rest) >= binary.MaxVarintLen64:
		return 0, errVarintOverflow
	case len(rest) == 0:
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// Uvarint reads a uvarint.
func (c *Cursor) Uvarint(what string) (uint64, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, nsgbErr(what, "", err)
	}
	return v, nil
}

func (c *Cursor) varint(what, part string) (int64, error) {
	ux, err := c.uvarint()
	if err != nil {
		return 0, nsgbErr(what, part, err)
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// Str reads a uvarint-length-prefixed string, copied out of the slice.
func (c *Cursor) Str(what string) (string, error) { return c.str(what, "") }

func (c *Cursor) str(what, part string) (string, error) {
	start, err := c.span(what, part)
	if err != nil {
		return "", err
	}
	if c.copied != "" {
		return c.copied[start:c.off], nil
	}
	return string(c.b[start:c.off]), nil
}

// label reads a name's label as Str does. With views set it returns a
// view of the cursor's bytes rather than a copy: a label the caller copies
// into its own table (tname.Tree.Define) then costs no allocation.
func (c *Cursor) label(what string) (string, error) {
	if !c.views {
		return c.str(what, "")
	}
	start, err := c.span(what, "")
	if err != nil || start == c.off {
		return "", err
	}
	return unsafe.String(&c.b[start], c.off-start), nil
}

// span steps over a uvarint-length-prefixed string and returns where its
// bytes start; they end at the cursor.
func (c *Cursor) span(what, part string) (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, fmt.Errorf("nsgb: %s%s length: %w", what, part, err)
	}
	if n > maxBinaryStr {
		return 0, fmt.Errorf("nsgb: %s%s length %d exceeds limit", what, part, n)
	}
	if left := c.Len(); n > uint64(left) {
		err = io.ErrUnexpectedEOF
		if left == 0 {
			err = io.EOF
		}
		return 0, nsgbErr(what, part, err)
	}
	start := c.off
	c.off += int(n)
	return start, nil
}

// OpKind reads an operation kind. It is compared at full width:
// spec.OpKind(v) would keep the low byte only.
func (c *Cursor) OpKind(what string) (spec.OpKind, error) {
	v, err := c.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v == 0 || v > uint64(spec.OpDeq) {
		return 0, fmt.Errorf("nsgb: %s: unknown op kind %d", what, v)
	}
	return spec.OpKind(v), nil
}

// Value reads a kind-tagged value, rebuilt through the spec constructors so
// that it carries exactly the fields its kind selects.
func (c *Cursor) Value(what string) (spec.Value, error) {
	if c.off == len(c.b) {
		return spec.Nil, nsgbErr(what, " kind", io.EOF)
	}
	kind := spec.ValueKind(c.b[c.off])
	c.off++
	switch kind {
	case spec.VNil:
		return spec.Nil, nil
	case spec.VOK:
		return spec.OK, nil
	case spec.VInt, spec.VBool:
		v, err := c.varint(what, " int")
		if err != nil {
			return spec.Nil, err
		}
		if kind == spec.VBool {
			return spec.Bool(v != 0), nil
		}
		return spec.Int(v), nil
	case spec.VStr:
		s, err := c.str(what, " str")
		if err != nil {
			return spec.Nil, err
		}
		return spec.Str(s), nil
	default:
		return spec.Nil, fmt.Errorf("nsgb: %s has unknown value kind %d", what, kind)
	}
}

// txDef reads a transaction entry as appendTxDef writes it. The parent and
// the object are the caller's to range-check.
func (c *Cursor) txDef() (parent, obj int64, label string, op spec.Op, err error) {
	if parent, err = c.varint("tx parent", ""); err != nil {
		return
	}
	if label, err = c.label("tx label"); err != nil {
		return
	}
	if obj, err = c.varint("tx obj", ""); err != nil || obj < 0 {
		return
	}
	if op.Kind, err = c.OpKind("tx op"); err != nil {
		return
	}
	op.Arg, err = c.Value("tx op arg")
	return
}

// skipTxDefs steps over n transaction entries, reading no string, and
// returns the bytes they take and the bytes their labels take, or size -1
// if they are not all there. It checks only their lengths: txDef judges
// what they hold.
func (c Cursor) skipTxDefs(n int) (size, labels int) {
	start := c.off
	skipStr := func() int {
		l, err := c.uvarint()
		if err != nil || l > uint64(c.Len()) {
			return -1
		}
		c.off += int(l)
		return int(l)
	}
	for i := 0; i < n; i++ {
		if _, err := c.uvarint(); err != nil { // parent
			return -1, 0
		}
		l := skipStr()
		if l < 0 {
			return -1, 0
		}
		labels += l
		obj, err := c.uvarint() // zigzag: odd is negative, no access
		if err != nil {
			return -1, 0
		}
		if obj&1 != 0 {
			continue
		}
		if _, err := c.uvarint(); err != nil || c.Len() == 0 { // op kind, arg kind
			return -1, 0
		}
		kind := spec.ValueKind(c.b[c.off])
		c.off++
		switch kind {
		case spec.VInt, spec.VBool:
			_, err = c.uvarint()
		case spec.VStr:
			if skipStr() < 0 {
				return -1, 0
			}
		default:
			// VNil and VOK carry no payload; txDef refuses any other kind.
		}
		if err != nil {
			return -1, 0
		}
	}
	return c.off - start, labels
}

// event reads an event as appendEvent writes it, checking its transaction
// against numTx and an inform's object against numObjects.
func (c *Cursor) event(numTx, numObjects int) (Event, error) {
	kind, tx, val, obj, err := c.eventFields(numTx, numObjects)
	if err != nil {
		return Event{}, err
	}
	return Event{Kind: kind, Tx: tx, Val: val, Obj: obj}, nil
}

// packed reads an event as event does into *p, appending a string value
// to *strs; on an error it leaves both unspecified. It writes no pointer
// but a string's, so a decoder filling a slice of records pays no write
// barrier per event.
func (c *Cursor) packed(p *Packed, strs *[]string, numTx, numObjects int) error {
	kind, tx, val, obj, err := c.eventFields(numTx, numObjects)
	if err != nil {
		return err
	}
	p.Kind, p.Tx = kind, tx
	if obj != tname.NoObj {
		p.X, p.VK = int64(obj), spec.VNil
	} else {
		p.VK, p.X, *strs = spec.Pack(val, *strs)
	}
	return nil
}

// eventFields is the one reading of an event as appendEvent writes it:
// its kind, its transaction, checked against numTx, and its value or, for
// an INFORM, its object, checked against numObjects (NoObj for any other
// kind).
func (c *Cursor) eventFields(numTx, numObjects int) (kind Kind, tx tname.TxID, val spec.Value, obj tname.ObjID, err error) {
	obj = tname.NoObj
	kb, err := c.Byte("event kind")
	if err != nil {
		return
	}
	kind = Kind(kb)
	if kind < Create || kind > InformAbort {
		err = fmt.Errorf("nsgb: unknown event kind %d", kb)
		return
	}
	txu, err := c.Uvarint("event tx")
	if err != nil {
		return
	}
	if txu >= uint64(numTx) {
		err = fmt.Errorf("nsgb: event names unknown tx %d", txu)
		return
	}
	tx = tname.TxID(txu)
	switch kind {
	case RequestCommit, ReportCommit:
		val, err = c.Value("event val")
	case InformCommit, InformAbort:
		var obju uint64
		if obju, err = c.Uvarint("event obj"); err != nil {
			return
		}
		if obju >= uint64(numObjects) {
			err = fmt.Errorf("nsgb: event informs unknown object %d", obju)
			return
		}
		obj = tname.ObjID(obju)
	default:
		// Every other kind is fully described by (kind, tx); the kind
		// range was checked above.
	}
	return
}

// header decodes the object and transaction tables straight into a tree,
// one entry at a time, through the checks DecodeTrace runs on a JSON header.
func (c *Cursor) header() (*tname.Tree, error) {
	if rest := c.b[c.off:]; !bytes.HasPrefix(rest, binaryMagic[:]) {
		return nil, fmt.Errorf("nsgb: bad magic %q", rest[:min(len(rest), len(binaryMagic))])
	}
	c.off += len(binaryMagic)
	ver, err := c.Uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("nsgb: unsupported version %d", ver)
	}

	nt := newNameTable()
	nObj, err := c.Uvarint("object count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nObj; i++ {
		label, err := c.Str("object label")
		if err != nil {
			return nil, err
		}
		specName, err := c.Str("object spec")
		if err != nil {
			return nil, err
		}
		if err := nt.object(int(i), label, specName); err != nil {
			return nil, err
		}
	}

	nTx, err := c.Uvarint("tx count")
	if err != nil {
		return nil, err
	}
	// Every entry takes at least three bytes (parent, label length, obj):
	// the bound caps what grow reserves.
	if nTx > uint64(c.Len()/3) {
		return nil, fmt.Errorf("nsgb: tx count %d exceeds input size", nTx)
	}
	// Read the table through one copy of its bytes, so that its labels are
	// cut out of one string instead of allocated one by one on their way
	// into the tree's text. A table that does not skip whole is read in
	// place, where its first bad entry is named.
	tab := NewCursor(c.b[c.off:])
	n, labels := tab.skipTxDefs(int(nTx))
	nt.grow(int(nTx), labels)
	if n >= 0 {
		tab = Cursor{b: tab.b[:n], copied: string(tab.b[:n])}
	}
	for i := 0; i < int(nTx); i++ {
		parent, obj, label, op, err := tab.txDef()
		if err != nil {
			return nil, err
		}
		if err := nt.check(i, parent, label, obj); err != nil {
			return nil, err
		}
		if i > 0 {
			nt.define(parent, label, obj, op)
		}
	}
	c.off += tab.off
	return nt.tr, nil
}

// BinaryDecoder decodes a binary trace incrementally: the header (system
// type) is read eagerly by NewBinaryDecoder, then Next yields one validated
// event at a time, so an incremental checker can consume a behavior without
// it ever being materialized. The decoder holds the encoded trace (a few
// bytes per event), never a Behavior (48 B per event); the tname.Tree it
// returns from Tree is larger than the encoded trace.
type BinaryDecoder struct {
	c    Cursor
	tr   *tname.Tree
	left uint64
	err  error
}

// NewBinaryDecoder reads r to its end, decodes the header and prepares to
// decode events.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("nsgb: read: %w", err)
	}
	c := NewCursor(data)
	tr, err := c.header()
	if err != nil {
		return nil, err
	}
	n, err := c.Uvarint("event count")
	if err != nil {
		return nil, err
	}
	// Every encoded event takes at least two bytes; the bound also caps
	// what ReadBinaryTrace reserves.
	if n > uint64(c.Len()/2) {
		return nil, fmt.Errorf("nsgb: event count %d exceeds input size", n)
	}
	return &BinaryDecoder{c: c, tr: tr, left: n}, nil
}

// readAll reads r to its end, as io.ReadAll does, except that a reader
// which reports how much it holds through Len() int, as *bytes.Reader does,
// is read into one buffer of that size plus the byte that sees the end,
// where io.ReadAll grows its buffer by doubling from 512 bytes.
func readAll(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, l.Len()+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			// The reader held more than it reported.
			b = append(b, 0)[:len(b)]
		}
	}
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
	e, err := d.c.event(d.tr.NumTx(), d.tr.NumObjects())
	if err != nil {
		d.err = err
		return Event{}, err
	}
	d.left--
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
	b := make(Behavior, 0, d.left)
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
	if d.c.Len() != 0 {
		return nil, nil, fmt.Errorf("nsgb: trailing data after events")
	}
	return d.tr, b, nil
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
