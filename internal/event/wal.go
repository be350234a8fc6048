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
	"strings"

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
	// WalEvents carries a run of consecutive log events: the server's WAL
	// writer copies what a sync adds to the log as one record, split only
	// where a record would pass its size bound.
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
	buf = AppendWalEventsHead(buf, len(evs))
	for _, e := range evs {
		buf = appendEvent(buf, e)
	}
	return buf
}

// AppendWalEventsHead appends the head of an event-batch payload of count
// events, which AppendWalEvent's encodings then follow. A writer that learns
// a batch's length only as it encodes it gathers the events first.
//
//sgvet:hotpath
func AppendWalEventsHead(buf []byte, count int) []byte {
	return binary.AppendUvarint(append(buf, byte(WalEvents)), uint64(count))
}

// AppendWalEvent appends one event of an event-batch payload.
//
//sgvet:hotpath
func AppendWalEvent(buf []byte, e Event) []byte { return appendEvent(buf, e) }

// AppendWalPacked is AppendWalEvent for the event rec packs (Pack), with
// strs the side table its string value indexes: the same bytes, read from
// the record in place.
//
//sgvet:hotpath
func AppendWalPacked(buf []byte, rec Packed, strs []string) []byte {
	var val spec.Value
	if rec.Kind == RequestCommit || rec.Kind == ReportCommit {
		val = spec.Unpack(rec.VK, rec.X, strs)
	}
	return appendEventOf(buf, rec.Kind, rec.Tx, val, uint64(rec.X))
}

// DecodeWalOp decodes one record payload, validating every transaction and
// object reference against the caller's running counts (numTx includes the
// root). It never panics on malformed input: any violation — short
// payload, trailing bytes, out-of-range reference, unknown kind — is an
// error. It reads the payload in place and allocates nothing but the
// strings and the event slice of its result.
func DecodeWalOp(payload []byte, numTx, numObjects int) (WalOp, error) {
	var op WalOp
	if err := decodeWalOp(&op, nil, payload, numTx, numObjects); err != nil {
		return WalOp{}, err
	}
	return op, nil
}

// PackedEvents gathers decoded events as the server's log keeps them:
// Recs in order, and the string values they index in Strs.
type PackedEvents struct {
	Recs []Packed
	Strs []string
}

// DecodeWalRecord is DecodeWalOp for a caller that decodes a whole WAL
// into its own tables, as recovery does: it decodes into *op and evs, and
// allocates only for a string value and to grow evs. A definition's Label
// and SpecName are views of payload, not copies: they read whatever
// payload's bytes hold, so a caller that keeps one past a change to those
// bytes must copy it (tname.Tree.Define copies a label; AddObject keeps
// it). A WalEvents record's events are appended to evs, packed, and
// op.Events is left alone; so is every other field of *op but Kind and Obj
// that the record's kind does not describe. It makes every check
// DecodeWalOp makes; on an
// error evs is as it was — a record that fails part-way leaves none of its
// events behind — and *op is unspecified.
func DecodeWalRecord(op *WalOp, evs *PackedEvents, payload []byte, numTx, numObjects int) error {
	n, strs := len(evs.Recs), len(evs.Strs)
	err := decodeWalOp(op, evs, payload, numTx, numObjects)
	if err != nil {
		evs.Recs, evs.Strs = evs.Recs[:n], evs.Strs[:strs]
	}
	return err
}

// WalNames reports, without decoding or validating payload, what decoding
// it adds to a name tree: a WalTxDef one transaction name whose label
// takes labelBytes, capped at the payload's size, a WalObjectDef one
// object, any other record nothing. A caller presizing its tree needs only
// bounds a corrupt record cannot inflate.
func WalNames(payload []byte) (txNames, objects, labelBytes int) {
	if len(payload) == 0 {
		return 0, 0, 0
	}
	switch WalKind(payload[0]) {
	case WalObjectDef:
		return 0, 1, 0
	case WalTxDef:
		c := NewCursor(payload[1:])
		if _, err := c.uvarint(); err != nil { // parent
			return 1, 0, 0
		}
		n, err := c.uvarint()
		if err != nil {
			return 1, 0, 0
		}
		return 1, 0, int(min(n, uint64(len(payload))))
	default:
		return 0, 0, 0
	}
}

// decodeWalOp decodes payload into *op. With evs, the cursor reads views
// of payload: a definition's label and spec name are left so, a string
// argument is cloned, and a WalEvents record's events are appended to evs;
// without, *op is zero, every string is a copy and the events get a slice
// of their own.
func decodeWalOp(op *WalOp, evs *PackedEvents, payload []byte, numTx, numObjects int) error {
	c := Cursor{b: payload, views: evs != nil}
	kb, err := c.Byte("wal record kind")
	if err != nil {
		return err
	}
	op.Kind, op.Obj = WalKind(kb), tname.NoObj
	switch op.Kind {
	case WalObjectDef:
		if op.Label, err = c.Str("wal object label"); err != nil {
			return err
		}
		if op.SpecName, err = c.Str("wal object spec"); err != nil {
			return err
		}
		if op.Label == "" {
			return fmt.Errorf("wal: object definition with empty label")
		}
		if spec.ByName(op.SpecName) == nil {
			return fmt.Errorf("wal: object %q has unknown spec %q", op.Label, op.SpecName)
		}
	case WalTxDef:
		var e txEntry
		err := c.txDef(&e)
		switch {
		case err != nil:
			return err
		case e.parent < 0 || e.parent >= int64(numTx):
			return fmt.Errorf("wal: tx definition names unknown parent %d", e.parent)
		case e.label == "":
			return fmt.Errorf("wal: tx definition with empty label")
		case e.obj != int64(tname.NoObj) && (e.obj < 0 || e.obj >= int64(numObjects)):
			return fmt.Errorf("wal: tx definition accesses unknown object %d", e.obj)
		}
		if c.views {
			e.op.Arg.Str = strings.Clone(e.op.Arg.Str)
		}
		op.Parent, op.Label, op.Obj, op.Op = tname.TxID(e.parent), e.label, tname.ObjID(e.obj), e.op
	case WalEvents:
		count, err := c.Uvarint("wal event count")
		if err != nil {
			return err
		}
		// Every encoded event takes at least two bytes, so a count larger
		// than the payload is corrupt; the bound also caps the allocation.
		if count > uint64(len(payload)) {
			return fmt.Errorf("wal: event count %d exceeds payload size", count)
		}
		if evs != nil {
			for i := uint64(0); i < count; i++ {
				evs.Recs = append(evs.Recs, Packed{})
				if err := c.packed(&evs.Recs[len(evs.Recs)-1], &evs.Strs, numTx, numObjects); err != nil {
					return err
				}
			}
			break
		}
		op.Events = make(Behavior, 0, count)
		for i := uint64(0); i < count; i++ {
			e, err := c.event(numTx, numObjects)
			if err != nil {
				return err
			}
			op.Events = append(op.Events, e)
		}
	default:
		return fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if c.Len() != 0 {
		return fmt.Errorf("wal: trailing bytes after %c record", byte(op.Kind))
	}
	return nil
}
