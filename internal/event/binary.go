package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
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
// The decoder reads every byte once. NewBinaryDecoder copies its input
// (readAll), and every string it hands out — an object's label, an access's
// string argument, a string value, and a transaction's label on its way
// into the tree's text — is a view of that copy, which nothing writes: a
// decoded trace that keeps one keeps the copy alive. The transaction table
// is read in one pass with no pre-pass to size it; the tree's text grows as
// the labels come. Each table entry and each event goes first through a
// fast path (quickTxDef, quickEvent) that reads the common shape in place —
// varints of one or two bytes, scalar values — and leaves any other,
// well-formed or not, to the general path (txDef, event), which names what
// is wrong with it.
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
	return appendEventOf(buf, e.Kind, e.Tx, e.Val, uint64(e.Obj))
}

// appendEventOf is appendEvent for an event given by its fields: val is
// read only for REQUEST_COMMIT/REPORT_COMMIT, obj only for informs.
//
//sgvet:hotpath
func appendEventOf(buf []byte, kind Kind, tx tname.TxID, val spec.Value, obj uint64) []byte {
	buf = append(buf, byte(kind))
	buf = binary.AppendUvarint(buf, uint64(tx))
	switch kind {
	case RequestCommit, ReportCommit:
		buf = AppendValue(buf, val)
	case InformCommit, InformAbort:
		buf = binary.AppendUvarint(buf, obj)
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
// costs an allocation only when it is a string read without views. Every
// method names its field, what, in the error it returns; the verdicts on a
// short or overlong varint are binary.ReadUvarint's.
type Cursor struct {
	// b is never re-sliced: reading moves off, an integer, so that it
	// stores no pointer and costs no write barrier while the collector
	// runs.
	b   []byte
	off int
	// views says that nothing writes to b while a string read from it
	// lives: every string the cursor reads is then a view of b instead of
	// a copy. A trace decoder's cursor has it, for b is the copy readAll
	// made (header takes one otherwise); so has DecodeWalRecord's, whose
	// caller copies labels on and which clones the strings it keeps.
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
// A byte under 0x80 is a whole uvarint and is read inline; any other goes
// to uvarintSlow.
func (c *Cursor) uvarint() (uint64, error) {
	if off := c.off; uint(off) < uint(len(c.b)) && c.b[off] < 0x80 {
		c.off = off + 1
		return uint64(c.b[off]), nil
	}
	return c.uvarintSlow()
}

// uvarintSlow reads a uvarint of any length. Ten continuation bytes are an
// overflow even when nothing follows them (binary.Uvarint alone calls that
// a short buffer), and running out mid-number is io.ErrUnexpectedEOF.
func (c *Cursor) uvarintSlow() (uint64, error) {
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

// uvarint14 reads a uvarint of one or two bytes, a number under 2^14, at
// b[off:] and returns it and the offset past it. For anything else — a
// longer uvarint, bytes that run out, or off itself -1 — the offset it
// returns is -1, so that a chain of reads is checked once at its end.
// quickTxDef and quickEvent read their fields so, and leave whatever they
// refuse to the general path, which names its error.
func uvarint14(b []byte, off int) (uint64, int) {
	if uint(off) < uint(len(b)) {
		x := uint64(b[off])
		if x < 0x80 {
			return x, off + 1
		}
		if uint(off+1) < uint(len(b)) {
			if y := uint64(b[off+1]); y < 0x80 {
				return x&0x7f | y<<7, off + 2
			}
		}
	}
	return 0, -1
}

// unzigzag is the signed integer a varint's uvarint encodes.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
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
	return unzigzag(ux), nil
}

// Str reads a uvarint-length-prefixed string: a view of the cursor's bytes
// with views set, else a copy.
func (c *Cursor) Str(what string) (string, error) { return c.str(what, "", c.views) }

// View reads a uvarint-length-prefixed string as a view of the cursor's
// bytes, views set or not: the caller promises that nothing writes to them
// while the string lives, and clones what it keeps longer.
func (c *Cursor) View(what string) (string, error) { return c.str(what, "", true) }

func (c *Cursor) str(what, part string, view bool) (string, error) {
	start, err := c.span(what, part)
	if err != nil || start == c.off {
		return "", err
	}
	if view {
		return unsafe.String(&c.b[start], c.off-start), nil
	}
	return string(c.b[start:c.off]), nil
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
		s, err := c.str(what, " str", c.views)
		if err != nil {
			return spec.Nil, err
		}
		return spec.Str(s), nil
	default:
		return spec.Nil, fmt.Errorf("nsgb: %s has unknown value kind %d", what, kind)
	}
}

// scalar reads at b[off:] a value that quickTxDef and quickEvent take on
// their fast path — nil, OK, or an int or bool whose varint takes one or two
// bytes — as Value would, and returns the offset past it, or -1 for any
// other value.
func scalar(b []byte, off int) (spec.Value, int) {
	if uint(off) >= uint(len(b)) {
		return spec.Nil, -1
	}
	switch kind := spec.ValueKind(b[off]); kind {
	case spec.VNil:
		return spec.Nil, off + 1
	case spec.VOK:
		return spec.OK, off + 1
	case spec.VInt:
		ux, p := uvarint14(b, off+1)
		return spec.Int(unzigzag(ux)), p
	case spec.VBool:
		ux, p := uvarint14(b, off+1)
		return spec.Bool(ux != 0), p // zigzag maps 0, and only 0, to 0
	default:
		return spec.Nil, -1
	}
}

// txEntry is a transaction entry as appendTxDef writes it. Its parent and
// its object are the reader's to range-check; op is zero unless obj >= 0.
type txEntry struct {
	parent, obj int64
	label       string
	op          spec.Op
}

// txDef reads a transaction entry into *e.
func (c *Cursor) txDef(e *txEntry) (err error) {
	e.op = spec.Op{}
	if e.parent, err = c.varint("tx parent", ""); err != nil {
		return err
	}
	if e.label, err = c.str("tx label", "", c.views); err != nil {
		return err
	}
	if e.obj, err = c.varint("tx obj", ""); err != nil || e.obj < 0 {
		return err
	}
	if e.op.Kind, err = c.OpKind("tx op"); err != nil {
		return err
	}
	e.op.Arg, err = c.Value("tx op arg")
	return err
}

// quickTxDef is txDef's fast path over a cursor with views: it reads into
// *e an entry whose parent, label length and object varints take at most
// two bytes each (a label that short is under maxBinaryStr) and whose
// access argument scalar takes, and reports false, the cursor unmoved, for
// any other.
func (c *Cursor) quickTxDef(e *txEntry) bool {
	b := c.b
	parent, p := uvarint14(b, c.off)
	n, p := uvarint14(b, p)
	if p < 0 || int(n) > len(b)-p {
		return false
	}
	label := ""
	if n > 0 {
		label = unsafe.String(&b[p], int(n))
	}
	obj, p := uvarint14(b, p+int(n))
	if p < 0 {
		return false
	}
	var kind spec.OpKind
	var arg spec.Value
	if obj&1 == 0 { // zigzag: an even uvarint is obj >= 0, an access
		if uint(p) >= uint(len(b)) || b[p] == 0 || b[p] > byte(spec.OpDeq) {
			return false
		}
		kind = spec.OpKind(b[p])
		if arg, p = scalar(b, p+1); p < 0 {
			return false
		}
	}
	c.off = p
	// Field by field: a spec.Op assigned whole is built on the stack and
	// copied in.
	e.parent, e.obj, e.label = unzigzag(parent), unzigzag(obj), label
	e.op.Kind, e.op.Arg.Kind, e.op.Arg.Int, e.op.Arg.Str = kind, arg.Kind, arg.Int, ""
	return true
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

// quickEvent is event's fast path: it reads into *e, which must be zero,
// an event whose transaction and inform's object are under 2^14 and whose
// value scalar takes, and reports false, *e and the cursor untouched, for
// any other. It sets every field but Val.Str, which such an event leaves
// empty, so it writes no pointer: a decoder filling a Behavior pays no
// write barrier.
func (c *Cursor) quickEvent(e *Event, numTx, numObjects int) bool {
	b, off := c.b, c.off
	if uint(off) >= uint(len(b)) {
		return false
	}
	kind := Kind(b[off])
	tx, p := uvarint14(b, off+1)
	if kind < Create || kind > InformAbort || p < 0 || tx >= uint64(numTx) {
		return false
	}
	var v spec.Value
	obj := tname.NoObj
	switch kind {
	case RequestCommit, ReportCommit:
		v, p = scalar(b, p)
	case InformCommit, InformAbort:
		var x uint64
		if x, p = uvarint14(b, p); x >= uint64(numObjects) {
			return false
		}
		obj = tname.ObjID(x)
	default:
		// Every other kind is fully described by (kind, tx).
	}
	if p < 0 {
		return false
	}
	c.off = p
	e.Kind, e.Tx, e.Val.Kind, e.Val.Int, e.Obj = kind, tname.TxID(tx), v.Kind, v.Int, obj
	return true
}

// packed reads an event as event does into *p, appending a copy of a
// string value to *strs, which outlives the bytes read; on an error it
// leaves both unspecified. It writes no pointer but a string's, so a
// decoder filling a slice of records pays no write barrier per event.
func (c *Cursor) packed(p *Packed, strs *[]string, numTx, numObjects int) error {
	kind, tx, val, obj, err := c.eventFields(numTx, numObjects)
	if err != nil {
		return err
	}
	p.Kind, p.Tx = kind, tx
	if obj != tname.NoObj {
		p.X, p.VK = int64(obj), spec.VNil
	} else {
		val.Str = strings.Clone(val.Str)
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
// in one pass, through the checks DecodeTrace runs on a JSON header. Every
// string it reads is a view of the cursor's bytes, and the tree keeps some
// (an object's label, an access's string argument), so a cursor without
// views first takes a copy of what is left and reads that.
func (c *Cursor) header() (*tname.Tree, error) {
	if !c.views {
		*c = Cursor{b: bytes.Clone(c.b[c.off:]), views: true}
	}
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
	// Every entry takes at least two bytes (two string lengths): the bound
	// caps what the tree reserves, and a count the input cannot hold is
	// refused as before, at the first entry that is not there.
	nt.tr.GrowObjects(int(min(nObj, uint64(c.Len()/2))))
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
	// The labels' size is not known before they are read: the tree's text
	// grows as they come.
	nt.grow(int(nTx), 0)
	var e txEntry
	for i := 0; i < int(nTx); i++ {
		if !c.quickTxDef(&e) {
			if err := c.txDef(&e); err != nil {
				return nil, err
			}
		}
		if err := nt.check(i, e.parent, e.label, e.obj); err != nil {
			return nil, err
		}
		if i > 0 {
			nt.define(e.parent, e.label, e.obj, e.op)
		}
	}
	return nt.tr, nil
}

// BinaryDecoder decodes a binary trace incrementally: the header (system
// type) is read eagerly by NewBinaryDecoder, then Next yields one validated
// event at a time, so an incremental checker can consume a behavior without
// it ever being materialized. The decoder holds a copy of the encoded
// trace (a few bytes per event), never a Behavior (48 B per event); the
// strings of its tree and its events are views of that copy, and the
// tname.Tree it returns from Tree is larger than the encoded trace.
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
	// data is the decoder's own copy: its strings can be views of it.
	c := Cursor{b: data, views: true}
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
func (d *BinaryDecoder) Next() (e Event, err error) {
	if d.left != 0 && d.err == nil && d.c.quickEvent(&e, d.tr.NumTx(), d.tr.NumObjects()) {
		d.left--
		return
	}
	return d.next()
}

// next is Next's general path, which names what is wrong with an event.
func (d *BinaryDecoder) next() (Event, error) {
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

// ReadBinaryTrace parses a binary trace in full. It reads the events as
// BinaryDecoder.Next does, by the same two paths, so the two cannot
// disagree on validity, but into a Behavior made at the declared length.
func ReadBinaryTrace(r io.Reader) (*tname.Tree, Behavior, error) {
	d, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, nil, err
	}
	b := make(Behavior, d.left)
	numTx, numObjects := d.tr.NumTx(), d.tr.NumObjects()
	for i := range b {
		if d.c.quickEvent(&b[i], numTx, numObjects) {
			continue
		}
		if b[i], err = d.c.event(numTx, numObjects); err != nil {
			return nil, nil, err
		}
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
