package event

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// The binary trace decoder as it stood before the one-pass header and the
// in-place event loops: Cursor, BinaryDecoder, NewBinaryDecoder and
// ReadBinaryTrace, kept verbatim under the names refCursor,
// refBinaryDecoder, newRefBinaryDecoder and refReadBinaryTrace, with the
// methods the decoder calls (the WAL's packed aside). It shares with the
// package only what the rewrite left alone: nsgbErr, errVarintOverflow,
// maxBinaryStr, readAll and the name table of trace.go.
// TestBinaryDecodeMatchesReference and FuzzBinaryDecodeMatchesReference
// drive it and the package's decoder in lockstep.

// TestBinaryDecodeMatchesReference drives the decoder and the reference in
// lockstep over the committed fuzz corpus and a table of traces at the
// edges of the fast paths: each whole, cut at every byte offset, and, for
// the small ones, with every byte overwritten by values that end or
// continue a varint. A large trace is cut at every offset from the last
// 16 bytes of its tables on, and at 16 offsets spread over the rest, so
// that the test stays linear in its size.
func TestBinaryDecodeMatchesReference(t *testing.T) {
	inputs := map[string]edgeTrace{}
	for name, data := range committedBinaryCorpus(t) {
		inputs["corpus "+name] = edgeTrace{data: data}
	}
	for name, et := range edgeTraces(t) {
		inputs[name] = et
	}
	const small = 1 << 10
	for name, et := range inputs {
		data, from := et.data, 0
		if len(data) > small {
			from = et.events - 16
		}
		for n := 0; n <= len(data); n++ {
			if n < from && n%(from/16+1) != 0 {
				continue
			}
			matchReference(t, fmt.Sprintf("%s cut to %d bytes", name, n), data[:n])
		}
		if len(data) > small {
			continue
		}
		bad := bytes.Clone(data)
		for i := range bad {
			for _, v := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
				old := bad[i]
				bad[i] = v
				matchReference(t, fmt.Sprintf("%s with byte %d set to %#x", name, i, v), bad)
				bad[i] = old
			}
		}
	}
}

// FuzzBinaryDecodeMatchesReference: for any input, the decoder and the
// reference accept the same traces, decode them to the same tree and
// behavior, streaming and in full, and refuse the rest with the same
// message.
func FuzzBinaryDecodeMatchesReference(f *testing.F) {
	for _, data := range committedBinaryCorpus(f) {
		f.Add(data)
	}
	for _, et := range edgeTraces(f) {
		if len(et.data) <= 4<<10 { // a large seed only slows the mutator down
			f.Add(et.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { matchReference(t, "fuzz input", data) })
}

// committedBinaryCorpus reads the committed seeds of
// FuzzBinaryTraceRoundTrip.
func committedBinaryCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryTraceRoundTrip")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", fi.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", fi.Name(), err)
		}
		out[fi.Name()] = []byte(s)
	}
	if len(out) == 0 {
		t.Fatalf("no committed corpus under %s", dir)
	}
	return out
}

// edgeTrace is an encoded trace and the offset of its event section.
type edgeTrace struct {
	data   []byte
	events int
}

// edgeTraces encodes traces at the edges of the decoder's fast paths:
// transaction IDs, object IDs and integer values on either side of one
// and two varint bytes, every value kind, string arguments, labels of 127
// and 128 bytes, events naming a transaction or an object just past the
// tables, and a varint written in more bytes than it needs.
func edgeTraces(t testing.TB) map[string]edgeTrace {
	t.Helper()
	out := map[string]edgeTrace{}
	add := func(name string, tr *tname.Tree, b Behavior) {
		out[name] = edgeTrace{MarshalBinaryTrace(tr, b), len(MarshalBinaryTrace(tr, nil)) - 1}
	}

	// Values of every kind, where each integer's zigzag lands on either
	// side of 2^7 and 2^14, and long labels.
	tr := tname.NewTree()
	x := tr.AddObject("x", spec.Register{})
	q := tr.AddObject("q", spec.Queue{})
	t1 := tr.Child(tname.Root, strings.Repeat("l", 127))
	var b Behavior
	for i, v := range []spec.Value{
		spec.Nil, spec.OK, spec.Bool(true), spec.Bool(false), spec.Str(""), spec.Str("a string value"),
		spec.Int(0), spec.Int(-1), spec.Int(63), spec.Int(64), spec.Int(-64), spec.Int(-65),
		spec.Int(8191), spec.Int(8192), spec.Int(-8192), spec.Int(-8193), spec.Int(1 << 40), spec.Int(-1 << 62),
	} {
		obj, kind := x, spec.OpWrite
		if v.Kind == spec.VStr {
			obj, kind = q, spec.OpEnq
		}
		a := tr.Access(t1, "a"+strconv.Itoa(i), obj, spec.Op{Kind: kind, Arg: v})
		b = append(b, NewValEvent(RequestCommit, a, v), NewValEvent(ReportCommit, a, v))
	}
	long := tr.Access(t1, strings.Repeat("m", 128), x, spec.Op{Kind: spec.OpRead})
	b = append(b, NewEvent(Create, long), NewInform(InformCommit, t1, x), NewInform(InformAbort, t1, q))
	add("values", tr, b)

	// Transaction IDs on either side of 127/128 and 16383/16384, and
	// parents whose zigzag takes three bytes.
	tr = tname.NewTree()
	x = tr.AddObject("x", spec.Counter{})
	b = nil
	parent := tname.Root
	for i := 1; tr.NumTx() < 16400; i++ {
		if i%4000 == 0 {
			parent = tname.TxID(tr.NumTx() - 1)
		}
		id := tr.Child(parent, "c"+strconv.Itoa(i))
		switch id {
		case 127, 128, 16383, 16384:
			b = append(b, NewEvent(Create, id), NewValEvent(RequestCommit, id, spec.Int(int64(id))),
				NewInform(InformCommit, id, x))
		}
	}
	add("wide ids", tr, b)

	// Objects on either side of 127/128, informed.
	tr = tname.NewTree()
	for i := 0; i < 200; i++ {
		tr.AddObject("o"+strconv.Itoa(i), spec.Register{})
	}
	t1 = tr.Child(tname.Root, "T1")
	b = Behavior{NewEvent(Create, t1)}
	for _, o := range []tname.ObjID{0, 127, 128, 199} {
		tr.Access(t1, "r"+strconv.Itoa(int(o)), o, spec.Op{Kind: spec.OpRead})
		b = append(b, NewInform(InformCommit, t1, o), NewInform(InformAbort, t1, o))
	}
	add("wide objects", tr, b)

	// An event naming the first transaction past the table, and an inform
	// of the first object past it: both decoders refuse them alike.
	tr = tname.NewTree()
	x = tr.AddObject("x", spec.Register{})
	t1 = tr.Child(tname.Root, "T1")
	add("tx past the table", tr, Behavior{NewEvent(Create, t1), NewEvent(Create, tname.TxID(tr.NumTx()))})
	add("object past the table", tr, Behavior{NewInform(InformCommit, t1, x), NewInform(InformAbort, t1, x+1)})

	// A varint written in more bytes than it needs: the tx of an event,
	// 1, as 0x81 0x00. binary.Uvarint takes it, and so must the fast path.
	tr = tname.NewTree()
	tr.Child(tname.Root, "T1")
	data := MarshalBinaryTrace(tr, nil)
	out["overlong varint"] = edgeTrace{append(data[:len(data)-1], 1, byte(Create), 0x81, 0x00), len(data) - 1}
	return out
}

// matchReference decodes data with the decoder and with the reference,
// in full and streaming, and fails unless both give the same tree and
// behavior or both refuse it with the same message.
func matchReference(t testing.TB, what string, data []byte) {
	t.Helper()
	tr, b, err := ReadBinaryTrace(bytes.NewReader(data))
	rtr, rb, rerr := refReadBinaryTrace(bytes.NewReader(data))
	switch {
	case (err == nil) != (rerr == nil):
		t.Fatalf("%s: ReadBinaryTrace says %v, the reference %v", what, err, rerr)
	case err != nil && err.Error() != rerr.Error():
		t.Fatalf("%s: ReadBinaryTrace refuses with %q, the reference with %q", what, err, rerr)
	case err == nil:
		if diff := treeDiff(tr, rtr); diff != "" {
			t.Fatalf("%s: ReadBinaryTrace's tree differs from the reference's: %s", what, diff)
		}
		if !b.Equal(rb) {
			t.Fatalf("%s: ReadBinaryTrace's behavior differs from the reference's", what)
		}
	}

	d, err := NewBinaryDecoder(bytes.NewReader(data))
	rd, rerr := newRefBinaryDecoder(bytes.NewReader(data))
	switch {
	case (err == nil) != (rerr == nil):
		t.Fatalf("%s: NewBinaryDecoder says %v, the reference %v", what, err, rerr)
	case err != nil:
		if err.Error() != rerr.Error() {
			t.Fatalf("%s: NewBinaryDecoder refuses with %q, the reference with %q", what, err, rerr)
		}
		return
	}
	if diff := treeDiff(d.Tree(), rd.Tree()); diff != "" {
		t.Fatalf("%s: NewBinaryDecoder's tree differs from the reference's: %s", what, diff)
	}
	// One call past the first error or io.EOF checks that it sticks.
	for i, stop := 0, 0; stop < 2; i++ {
		e, err := d.Next()
		re, rerr := rd.Next()
		switch {
		case (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error():
			t.Fatalf("%s: event %d: Next says %v, the reference %v", what, i, err, rerr)
		case e != re:
			t.Fatalf("%s: event %d: Next gives %+v, the reference %+v", what, i, e, re)
		case d.Remaining() != rd.Remaining():
			t.Fatalf("%s: event %d: %d remain, the reference %d", what, i, d.Remaining(), rd.Remaining())
		case err != nil:
			stop++
		}
	}
}

// treeDiff names the first difference between two trees: objects, names,
// parents, labels and accesses with their operations, or "" for none.
func treeDiff(a, b *tname.Tree) string {
	if a.NumObjects() != b.NumObjects() || a.NumTx() != b.NumTx() {
		return fmt.Sprintf("%d/%d objects, %d/%d names", a.NumObjects(), b.NumObjects(), a.NumTx(), b.NumTx())
	}
	for x := tname.ObjID(0); int(x) < a.NumObjects(); x++ {
		if a.ObjectLabel(x) != b.ObjectLabel(x) || a.Spec(x).Name() != b.Spec(x).Name() {
			return fmt.Sprintf("object %d: %q %s, %q %s", x, a.ObjectLabel(x), a.Spec(x).Name(), b.ObjectLabel(x), b.Spec(x).Name())
		}
	}
	for id := tname.TxID(0); int(id) < a.NumTx(); id++ {
		if a.Parent(id) != b.Parent(id) || a.Label(id) != b.Label(id) || a.AccessObject(id) != b.AccessObject(id) {
			return fmt.Sprintf("name %d: %d %q %d, %d %q %d", id, a.Parent(id), a.Label(id), a.AccessObject(id),
				b.Parent(id), b.Label(id), b.AccessObject(id))
		}
		if a.IsAccess(id) && a.AccessOp(id) != b.AccessOp(id) {
			return fmt.Sprintf("access %d: %v, %v", id, a.AccessOp(id), b.AccessOp(id))
		}
	}
	return ""
}

// refCursor reads the NSGB primitives off the front of a byte slice: the one
// decoder of binary traces, WAL record payloads and wire frames. It reads in
// place — no reader, buffer or intermediate value behind it — so a field
// costs an allocation only when it is a string. Every method names its
// field, what, in the error it returns; the verdicts on a short or
// overlong varint are binary.ReadUvarint's.
type refCursor struct {
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

// newRefCursor returns a cursor over b.
func newRefCursor(b []byte) refCursor { return refCursor{b: b} }

// Len reports how many bytes are left unread.
func (c *refCursor) Len() int { return len(c.b) - c.off }

// Byte reads one byte.
func (c *refCursor) Byte(what string) (byte, error) {
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
func (c *refCursor) uvarint() (uint64, error) {
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
func (c *refCursor) Uvarint(what string) (uint64, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, nsgbErr(what, "", err)
	}
	return v, nil
}

func (c *refCursor) varint(what, part string) (int64, error) {
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
func (c *refCursor) Str(what string) (string, error) { return c.str(what, "") }

func (c *refCursor) str(what, part string) (string, error) {
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
func (c *refCursor) label(what string) (string, error) {
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
func (c *refCursor) span(what, part string) (int, error) {
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
func (c *refCursor) OpKind(what string) (spec.OpKind, error) {
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
func (c *refCursor) Value(what string) (spec.Value, error) {
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
func (c *refCursor) txDef() (parent, obj int64, label string, op spec.Op, err error) {
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
func (c refCursor) skipTxDefs(n int) (size, labels int) {
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
func (c *refCursor) event(numTx, numObjects int) (Event, error) {
	kind, tx, val, obj, err := c.eventFields(numTx, numObjects)
	if err != nil {
		return Event{}, err
	}
	return Event{Kind: kind, Tx: tx, Val: val, Obj: obj}, nil
}

// eventFields is the one reading of an event as appendEvent writes it:
// its kind, its transaction, checked against numTx, and its value or, for
// an INFORM, its object, checked against numObjects (NoObj for any other
// kind).
func (c *refCursor) eventFields(numTx, numObjects int) (kind Kind, tx tname.TxID, val spec.Value, obj tname.ObjID, err error) {
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
func (c *refCursor) header() (*tname.Tree, error) {
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
	tab := newRefCursor(c.b[c.off:])
	n, labels := tab.skipTxDefs(int(nTx))
	nt.grow(int(nTx), labels)
	if n >= 0 {
		tab = refCursor{b: tab.b[:n], copied: string(tab.b[:n])}
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

// refBinaryDecoder decodes a binary trace incrementally: the header (system
// type) is read eagerly by newRefBinaryDecoder, then Next yields one validated
// event at a time, so an incremental checker can consume a behavior without
// it ever being materialized. The decoder holds the encoded trace (a few
// bytes per event), never a Behavior (48 B per event); the tname.Tree it
// returns from Tree is larger than the encoded trace.
type refBinaryDecoder struct {
	c    refCursor
	tr   *tname.Tree
	left uint64
	err  error
}

// newRefBinaryDecoder reads r to its end, decodes the header and prepares to
// decode events.
func newRefBinaryDecoder(r io.Reader) (*refBinaryDecoder, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("nsgb: read: %w", err)
	}
	c := newRefCursor(data)
	tr, err := c.header()
	if err != nil {
		return nil, err
	}
	n, err := c.Uvarint("event count")
	if err != nil {
		return nil, err
	}
	// Every encoded event takes at least two bytes; the bound also caps
	// what refReadBinaryTrace reserves.
	if n > uint64(c.Len()/2) {
		return nil, fmt.Errorf("nsgb: event count %d exceeds input size", n)
	}
	return &refBinaryDecoder{c: c, tr: tr, left: n}, nil
}

// Tree returns the system type decoded from the header.
func (d *refBinaryDecoder) Tree() *tname.Tree { return d.tr }

// Remaining reports how many events have not yet been decoded.
func (d *refBinaryDecoder) Remaining() int { return int(d.left) }

// Next decodes and validates the next event. It returns io.EOF after the
// last event; any other error is sticky.
func (d *refBinaryDecoder) Next() (Event, error) {
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

// refReadBinaryTrace parses a binary trace in full. It is the same code path
// as streaming through refBinaryDecoder, so the two cannot disagree on
// validity.
func refReadBinaryTrace(r io.Reader) (*tname.Tree, Behavior, error) {
	d, err := newRefBinaryDecoder(r)
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
