// WAL record codec: the payloads of the server's write-ahead log.
//
// The server's durable log (internal/server) is a sequence of framed
// records; each record payload is encoded here with the same NSGB
// primitives as the binary trace codec (binary.go), so values, labels and
// events have exactly one wire form in the repo. Three record kinds exist:
//
//	WalObjectDef  'O' | label str | spec-name str
//	WalTxDef      'T' | parent svarint | label str | obj svarint
//	              [| op uvarint | arg value]          (obj >= 0 only)
//	WalEvents     'E' | count uvarint | count × event
//
// where an event is encoded as in the binary trace event section: kind
// byte, tx uvarint, then a value for REQUEST_COMMIT/REPORT_COMMIT or an
// object uvarint for informs. Definitions are written before first use and
// IDs are implicit: the i'th WalObjectDef defines ObjID i, the i'th
// WalTxDef defines TxID i+1 (TxID 0 is the pre-existing root T0), exactly
// mirroring the tname interner's sequential assignment. DecodeWalOp
// therefore validates every reference against the running (numTx,
// numObjects) counts the caller maintains, so a torn or corrupted record
// is rejected instead of panicking downstream in the interner.
package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// WalKind tags a WAL record payload.
type WalKind uint8

const (
	// WalObjectDef defines the next object (sequential ObjID).
	WalObjectDef WalKind = 'O'
	// WalTxDef defines the next transaction (sequential TxID after Root).
	WalTxDef WalKind = 'T'
	// WalEvents carries one atomic batch of log events: every multi-event
	// append the server makes (e.g. REQUEST_CREATE+CREATE) is one record,
	// so recovery never sees half of an atomic batch.
	WalEvents WalKind = 'E'
)

// WalOp is one decoded WAL record payload.
type WalOp struct {
	Kind WalKind

	// Label and SpecName describe a WalObjectDef; Label also names a
	// WalTxDef.
	Label    string
	SpecName string

	// Parent, Obj and Op describe a WalTxDef. Obj is NoObj for a plain
	// subtransaction.
	Parent tname.TxID
	Obj    tname.ObjID
	Op     spec.Op

	// Events carries a WalEvents batch.
	Events Behavior
}

// AppendWalObjectDef appends an object-definition payload to buf.
//
//sgvet:hotpath
func AppendWalObjectDef(buf []byte, label, specName string) []byte {
	buf = append(buf, byte(WalObjectDef))
	buf = appendStr(buf, label)
	return appendStr(buf, specName)
}

// AppendWalTxDef appends a transaction-definition payload to buf. For an
// access, obj names the accessed object and op its operation; for a plain
// subtransaction obj must be tname.NoObj (op is ignored).
//
//sgvet:hotpath
func AppendWalTxDef(buf []byte, parent tname.TxID, label string, obj tname.ObjID, op spec.Op) []byte {
	buf = append(buf, byte(WalTxDef))
	buf = binary.AppendVarint(buf, int64(parent))
	buf = appendStr(buf, label)
	buf = binary.AppendVarint(buf, int64(obj))
	if obj != tname.NoObj {
		buf = binary.AppendUvarint(buf, uint64(op.Kind))
		buf = appendValue(buf, op.Arg)
	}
	return buf
}

// AppendWalEvents appends an event-batch payload to buf.
//
//sgvet:hotpath
func AppendWalEvents(buf []byte, evs ...Event) []byte {
	buf = append(buf, byte(WalEvents))
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, e := range evs {
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

// DecodeWalOp decodes one record payload, validating every transaction and
// object reference against the caller's running counts (numTx includes the
// root). It never panics on malformed input: any violation — short
// payload, trailing bytes, out-of-range reference, unknown kind — is an
// error. It reads the payload in place and allocates nothing but the
// strings and the event slice of its result: recovery calls it once per
// record, and a record is a dozen bytes.
func DecodeWalOp(payload []byte, numTx, numObjects int) (WalOp, error) {
	c := walCursor{b: payload}
	kb, err := c.byte()
	if err != nil {
		return WalOp{}, binErr("wal record kind", err)
	}
	op := WalOp{Kind: WalKind(kb), Obj: tname.NoObj}
	switch op.Kind {
	case WalObjectDef:
		if op.Label, err = c.str("wal object label", ""); err != nil {
			return WalOp{}, err
		}
		if op.SpecName, err = c.str("wal object spec", ""); err != nil {
			return WalOp{}, err
		}
		if op.Label == "" {
			return WalOp{}, fmt.Errorf("wal: object definition with empty label")
		}
		if spec.ByName(op.SpecName) == nil {
			return WalOp{}, fmt.Errorf("wal: object %q has unknown spec %q", op.Label, op.SpecName)
		}
	case WalTxDef:
		parent, err := c.varint()
		if err != nil {
			return WalOp{}, binErr("wal tx parent", err)
		}
		if parent < 0 || parent >= int64(numTx) {
			return WalOp{}, fmt.Errorf("wal: tx definition names unknown parent %d", parent)
		}
		op.Parent = tname.TxID(parent)
		if op.Label, err = c.str("wal tx label", ""); err != nil {
			return WalOp{}, err
		}
		if op.Label == "" {
			return WalOp{}, fmt.Errorf("wal: tx definition with empty label")
		}
		obj, err := c.varint()
		if err != nil {
			return WalOp{}, binErr("wal tx obj", err)
		}
		if obj != int64(tname.NoObj) {
			if obj < 0 || obj >= int64(numObjects) {
				return WalOp{}, fmt.Errorf("wal: tx definition accesses unknown object %d", obj)
			}
			op.Obj = tname.ObjID(obj)
			opk, err := c.uvarint()
			if err != nil {
				return WalOp{}, binErr("wal tx op", err)
			}
			if opk == 0 || spec.OpKind(opk) > spec.OpDeq {
				return WalOp{}, fmt.Errorf("wal: tx definition has unknown op kind %d", opk)
			}
			op.Op.Kind = spec.OpKind(opk)
			if op.Op.Arg, err = c.value("wal tx op arg"); err != nil {
				return WalOp{}, err
			}
		}
	case WalEvents:
		count, err := c.uvarint()
		if err != nil {
			return WalOp{}, binErr("wal event count", err)
		}
		// Every encoded event takes at least two bytes, so a count larger
		// than the payload is corrupt; the bound also caps the allocation.
		if count > uint64(len(payload)) {
			return WalOp{}, fmt.Errorf("wal: event count %d exceeds payload size", count)
		}
		op.Events = make(Behavior, 0, count)
		for i := uint64(0); i < count; i++ {
			e, err := decodeWalEvent(&c, numTx, numObjects)
			if err != nil {
				return WalOp{}, err
			}
			op.Events = append(op.Events, e)
		}
	default:
		return WalOp{}, fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if len(c.b) != 0 {
		return WalOp{}, fmt.Errorf("wal: trailing bytes after %c record", byte(op.Kind))
	}
	return op, nil
}

func decodeWalEvent(c *walCursor, numTx, numObjects int) (Event, error) {
	kb, err := c.byte()
	if err != nil {
		return Event{}, binErr("wal event kind", err)
	}
	kind := Kind(kb)
	if kind < Create || kind > InformAbort {
		return Event{}, fmt.Errorf("wal: unknown event kind %d", kb)
	}
	txu, err := c.uvarint()
	if err != nil {
		return Event{}, binErr("wal event tx", err)
	}
	if txu >= uint64(numTx) {
		return Event{}, fmt.Errorf("wal: event names unknown tx %d", txu)
	}
	e := Event{Kind: kind, Tx: tname.TxID(txu), Val: spec.Nil, Obj: tname.NoObj}
	switch kind {
	case RequestCommit, ReportCommit:
		if e.Val, err = c.value("wal event val"); err != nil {
			return Event{}, err
		}
	case InformCommit, InformAbort:
		obju, err := c.uvarint()
		if err != nil {
			return Event{}, binErr("wal event obj", err)
		}
		if obju >= uint64(numObjects) {
			return Event{}, fmt.Errorf("wal: event informs unknown object %d", obju)
		}
		e.Obj = tname.ObjID(obju)
	default:
		// Fully described by (kind, tx).
	}
	return e, nil
}

// walCursor reads the NSGB primitives off the front of a record payload.
// It is binReader for a byte slice — the same accept/reject decisions and
// the same error texts (FuzzDecodeWalOp holds the two together) — without
// a reader, a buffer or a TraceValue behind it. byte, uvarint and varint
// return the bare io error for the caller to name with binErr; str and
// value name their own, and take the field name in two parts so that the
// happy path never concatenates.
type walCursor struct{ b []byte }

func binErr(what string, err error) error {
	return fmt.Errorf("trace: binary: %s: %w", what, err)
}

// errVarintOverflow has the text of encoding/binary's unexported overflow
// error, which binReader surfaces from binary.ReadUvarint.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

func (c *walCursor) byte() (byte, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	b := c.b[0]
	c.b = c.b[1:]
	return b, nil
}

// uvarint gives binary.ReadUvarint's verdicts: ten continuation bytes are
// an overflow even when nothing follows them (binary.Uvarint alone calls
// that a short buffer), and running out mid-number is ErrUnexpectedEOF.
func (c *walCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	switch {
	case n > 0:
		c.b = c.b[n:]
		return v, nil
	case n < 0 || len(c.b) >= binary.MaxVarintLen64:
		return 0, errVarintOverflow
	case len(c.b) == 0:
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

func (c *walCursor) varint() (int64, error) {
	ux, err := c.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

func (c *walCursor) str(what, part string) (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", binErr(what+part+" length", err)
	}
	if n > maxBinaryStr {
		return "", fmt.Errorf("trace: binary: %s%s length %d exceeds limit", what, part, n)
	}
	if n > uint64(len(c.b)) {
		err = io.ErrUnexpectedEOF
		if len(c.b) == 0 {
			err = io.EOF
		}
		return "", binErr(what+part, err)
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}

// value decodes a kind-tagged value, rebuilding it through the spec
// constructors as decodeValue does.
func (c *walCursor) value(what string) (spec.Value, error) {
	kb, err := c.byte()
	if err != nil {
		return spec.Nil, binErr(what+" kind", err)
	}
	switch spec.ValueKind(kb) {
	case spec.VNil:
		return spec.Nil, nil
	case spec.VOK:
		return spec.OK, nil
	case spec.VInt, spec.VBool:
		v, err := c.varint()
		if err != nil {
			return spec.Nil, binErr(what+" int", err)
		}
		if spec.ValueKind(kb) == spec.VBool {
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
		return spec.Nil, fmt.Errorf("trace: binary: %s has unknown value kind %d", what, kb)
	}
}
