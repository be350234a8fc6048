// WAL record codec: the payloads of the server's write-ahead log.
//
// The server's durable log (internal/server) is a sequence of framed
// records; each record payload is encoded here with the NSGB encoders of
// the binary trace codec (binary.go) and decoded with its Cursor, so
// values, labels, transaction definitions and events have exactly one
// encoder and one decoder in the repo. Three record kinds exist:
//
//	WalObjectDef  'O' | label str | spec-name str
//	WalTxDef      'T' | parent svarint | label str | obj svarint
//	              [| op uvarint | arg value]          (obj >= 0 only)
//	WalEvents     'E' | count uvarint | count × event
//
// where a WalTxDef body is a binary trace's transaction entry and an event
// is encoded as in its event section: kind byte, tx uvarint, then a value
// for REQUEST_COMMIT/REPORT_COMMIT or an object uvarint for informs.
// Definitions are written before first use and IDs are implicit: the i'th
// WalObjectDef defines ObjID i, the i'th WalTxDef defines TxID i+1 (TxID 0
// is the pre-existing root T0), exactly mirroring the tname interner's
// sequential assignment. DecodeWalOp therefore validates every reference
// against the running (numTx, numObjects) counts the caller maintains, so
// a torn or corrupted record is rejected instead of panicking downstream
// in the interner.
package event

import (
	"encoding/binary"
	"fmt"

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
	buf = AppendString(buf, label)
	return AppendString(buf, specName)
}

// AppendWalTxDef appends a transaction-definition payload to buf. For an
// access, obj names the accessed object and op its operation; for a plain
// subtransaction obj must be tname.NoObj (op is ignored).
//
//sgvet:hotpath
func AppendWalTxDef(buf []byte, parent tname.TxID, label string, obj tname.ObjID, op spec.Op) []byte {
	return appendTxDef(append(buf, byte(WalTxDef)), parent, label, obj, op)
}

// AppendWalEvents appends an event-batch payload to buf.
//
//sgvet:hotpath
func AppendWalEvents(buf []byte, evs ...Event) []byte {
	buf = append(buf, byte(WalEvents))
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, e := range evs {
		buf = appendEvent(buf, e)
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
	c := NewCursor(payload)
	kb, err := c.Byte("wal record kind")
	if err != nil {
		return WalOp{}, err
	}
	op := WalOp{Kind: WalKind(kb), Obj: tname.NoObj}
	switch op.Kind {
	case WalObjectDef:
		if op.Label, err = c.Str("wal object label"); err != nil {
			return WalOp{}, err
		}
		if op.SpecName, err = c.Str("wal object spec"); err != nil {
			return WalOp{}, err
		}
		if op.Label == "" {
			return WalOp{}, fmt.Errorf("wal: object definition with empty label")
		}
		if spec.ByName(op.SpecName) == nil {
			return WalOp{}, fmt.Errorf("wal: object %q has unknown spec %q", op.Label, op.SpecName)
		}
	case WalTxDef:
		parent, obj, label, txop, err := c.txDef()
		switch {
		case err != nil:
			return WalOp{}, err
		case parent < 0 || parent >= int64(numTx):
			return WalOp{}, fmt.Errorf("wal: tx definition names unknown parent %d", parent)
		case label == "":
			return WalOp{}, fmt.Errorf("wal: tx definition with empty label")
		case obj != int64(tname.NoObj) && (obj < 0 || obj >= int64(numObjects)):
			return WalOp{}, fmt.Errorf("wal: tx definition accesses unknown object %d", obj)
		}
		op.Parent, op.Label, op.Obj, op.Op = tname.TxID(parent), label, tname.ObjID(obj), txop
	case WalEvents:
		count, err := c.Uvarint("wal event count")
		if err != nil {
			return WalOp{}, err
		}
		// Every encoded event takes at least two bytes, so a count larger
		// than the payload is corrupt; the bound also caps the allocation.
		if count > uint64(len(payload)) {
			return WalOp{}, fmt.Errorf("wal: event count %d exceeds payload size", count)
		}
		op.Events = make(Behavior, 0, count)
		for i := uint64(0); i < count; i++ {
			e, err := c.event(numTx, numObjects)
			if err != nil {
				return WalOp{}, err
			}
			op.Events = append(op.Events, e)
		}
	default:
		return WalOp{}, fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if c.Len() != 0 {
		return WalOp{}, fmt.Errorf("wal: trailing bytes after %c record", byte(op.Kind))
	}
	return op, nil
}
