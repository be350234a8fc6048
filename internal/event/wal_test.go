package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// walSamples returns one encoded payload per record shape, with the
// (numTx, numObjects) counts under which each is valid.
func walSamples() []struct {
	name    string
	payload []byte
	numTx   int
	numObj  int
} {
	events := Behavior{
		NewEvent(RequestCreate, 1),
		NewEvent(Create, 1),
		NewValEvent(RequestCommit, 2, spec.Int(7)),
		NewEvent(Commit, 2),
		NewInform(InformCommit, 2, 0),
		NewValEvent(ReportCommit, 2, spec.Str("hi")),
		NewEvent(Abort, 1),
		NewInform(InformAbort, 1, 1),
		NewEvent(ReportAbort, 1),
		NewValEvent(RequestCommit, 1, spec.OK),
		NewValEvent(ReportCommit, 1, spec.Bool(true)),
	}
	return []struct {
		name    string
		payload []byte
		numTx   int
		numObj  int
	}{
		{"objectdef", AppendWalObjectDef(nil, "x", "register"), 1, 0},
		{"txdef-plain", AppendWalTxDef(nil, tname.Root, "s1.1", tname.NoObj, spec.Op{}), 1, 0},
		{"txdef-access", AppendWalTxDef(nil, 1, "a1", 0, spec.Op{Kind: spec.OpWrite, Arg: spec.Int(42)}), 2, 1},
		{"events", AppendWalEvents(nil, events...), 3, 2},
		{"events-empty", AppendWalEvents(nil), 1, 0},
	}
}

// reencodeWalOp encodes a decoded record again.
func reencodeWalOp(op WalOp) []byte {
	switch op.Kind {
	case WalObjectDef:
		return AppendWalObjectDef(nil, op.Label, op.SpecName)
	case WalTxDef:
		return AppendWalTxDef(nil, op.Parent, op.Label, op.Obj, op.Op)
	case WalEvents:
		return AppendWalEvents(nil, op.Events...)
	}
	panic(fmt.Sprintf("decoder accepted unknown record kind %d", op.Kind))
}

func TestWalOpRoundTrip(t *testing.T) {
	for _, s := range walSamples() {
		op, err := DecodeWalOp(s.payload, s.numTx, s.numObj)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		if re := reencodeWalOp(op); string(re) != string(s.payload) {
			t.Fatalf("%s: re-encode differs:\n  in:  %x\n  out: %x", s.name, s.payload, re)
		}
	}
}

// TestWalOpTruncation feeds every strict prefix of every sample payload to
// the decoder: each must return an error (never panic, never accept).
func TestWalOpTruncation(t *testing.T) {
	for _, s := range walSamples() {
		for n := 0; n < len(s.payload); n++ {
			if _, err := DecodeWalOp(s.payload[:n], s.numTx, s.numObj); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d-byte payload decoded without error", s.name, n, len(s.payload))
			}
		}
	}
}

// walRejects returns malformed payloads, one per way a record can be
// wrong, with the counts it is wrong under.
func walRejects() []struct {
	name    string
	payload []byte
	numTx   int
	numObj  int
} {
	good := AppendWalObjectDef(nil, "x", "register")
	return []struct {
		name    string
		payload []byte
		numTx   int
		numObj  int
	}{
		{"empty", nil, 1, 0},
		{"unknown-kind", []byte{'Z'}, 1, 0},
		{"trailing-garbage", append(append([]byte(nil), good...), 0xff), 1, 0},
		{"object-empty-label", AppendWalObjectDef(nil, "", "register"), 1, 0},
		{"object-bad-spec", AppendWalObjectDef(nil, "x", "nosuchspec"), 1, 0},
		{"tx-bad-parent", AppendWalTxDef(nil, 5, "c1", tname.NoObj, spec.Op{}), 2, 0},
		{"tx-negative-parent", AppendWalTxDef(nil, -2, "c1", tname.NoObj, spec.Op{}), 2, 0},
		{"tx-empty-label", AppendWalTxDef(nil, tname.Root, "", tname.NoObj, spec.Op{}), 1, 0},
		{"tx-bad-obj", AppendWalTxDef(nil, tname.Root, "a1", 3, spec.Op{Kind: spec.OpRead}), 1, 1},
		{"tx-bad-op", append(AppendWalTxDef(nil, tname.Root, "a1", tname.NoObj, spec.Op{})[:0],
			func() []byte {
				b := []byte{byte(WalTxDef)}
				b = append(b, 0)      // parent varint 0
				b = append(b, 1, 'a') // label "a"
				b = append(b, 0)      // obj varint 0
				b = append(b, 0x7f)   // op kind 127 (unknown)
				b = append(b, 0)      // arg: nil kind
				return b
			}()...), 1, 1},
		{"events-bad-tx", AppendWalEvents(nil, NewEvent(Create, 9)), 2, 0},
		{"events-bad-obj", AppendWalEvents(nil, NewInform(InformCommit, 1, 4)), 2, 1},
		{"events-huge-count", []byte{byte(WalEvents), 0xff, 0xff, 0xff, 0x7f}, 1, 0},
		// Two events decode, the third names an unknown transaction.
		{"events-bad-tx-after-good", AppendWalEvents(nil,
			NewEvent(RequestCreate, 1), NewEvent(Create, 1), NewEvent(Create, 9)), 2, 0},
	}
}

func TestWalOpRejects(t *testing.T) {
	for _, c := range walRejects() {
		if _, err := DecodeWalOp(c.payload, c.numTx, c.numObj); err == nil {
			t.Fatalf("%s: decoded without error", c.name)
		}
		checkDecodeRecord(t, c.payload, c.numTx, c.numObj, 1, 4)
	}
}

// walPrefix fills the scratch checkDecodeRecord hands DecodeWalRecord, as
// the events of earlier records would.
var walPrefix = Behavior{
	NewEvent(Create, tname.Root),
	NewEvent(RequestCreate, 1),
	NewEvent(Create, 1),
	NewValEvent(RequestCommit, 1, spec.Str("prefix")),
}

// checkDecodeRecord holds DecodeWalRecord to DecodeWalOp on payload,
// decoding into a scratch that holds the first n events of walPrefix
// (1 ≤ n ≤ len(walPrefix)), packed, with spare room: the same verdict and
// error text; on an error the scratch as it was; on success the same
// record, its events appended to the scratch, in place whenever they fit,
// and unpacking to DecodeWalOp's.
func checkDecodeRecord(t *testing.T, payload []byte, numTx, numObj, n, spare int) {
	t.Helper()
	evs := PackedEvents{Recs: make([]Packed, 0, n+spare)}
	for _, e := range walPrefix[:n] {
		var p Packed
		p, evs.Strs = Pack(e, evs.Strs)
		evs.Recs = append(evs.Recs, p)
	}
	scratch, strs := evs.Recs, len(evs.Strs)
	want, wantErr := DecodeWalOp(payload, numTx, numObj)
	var op WalOp
	err := DecodeWalRecord(&op, &evs, payload, numTx, numObj)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%x: DecodeWalRecord says %v, DecodeWalOp %v", payload, err, wantErr)
	}
	var got Behavior
	for i := range evs.Recs {
		got = append(got, unpack(evs.Recs[i], evs.Strs))
	}
	if !slices.Equal(got[:min(n, len(got))], walPrefix[:n]) {
		t.Fatalf("%x: the scratch's events became %v", payload, got)
	}
	if err != nil {
		if len(evs.Recs) != n || len(evs.Strs) != strs {
			t.Fatalf("%x: failed decode left %d events and %d strings in the scratch, want its %d and %d",
				payload, len(evs.Recs), len(evs.Strs), n, strs)
		}
		return
	}
	if !slices.Equal(got[n:], want.Events) {
		t.Fatalf("%x: appended %v, DecodeWalOp decodes %v", payload, got[n:], want.Events)
	}
	if len(evs.Recs) <= cap(scratch) && &evs.Recs[0] != &scratch[0] {
		t.Fatalf("%x: events that fit the scratch were decoded elsewhere", payload)
	}
	if op.Events != nil {
		t.Fatalf("%x: DecodeWalRecord returned events in the op", payload)
	}
	want.Events = nil
	if !reflect.DeepEqual(op, want) {
		t.Fatalf("%x: DecodeWalRecord decodes %+v, DecodeWalOp %+v", payload, op, want)
	}
}

// unpack is the event p packs, with strs the side table Pack appended to.
func unpack(p Packed, strs []string) Event {
	switch p.Kind {
	case InformCommit, InformAbort:
		return NewInform(p.Kind, p.Tx, tname.ObjID(p.X))
	case RequestCommit, ReportCommit:
		return NewValEvent(p.Kind, p.Tx, spec.Unpack(p.VK, p.X, strs))
	default:
		return NewEvent(p.Kind, p.Tx)
	}
}

// TestDecodeWalRecordAllocs: DecodeWalRecord allocates nothing for a
// record without a string value, whose events fit its scratch.
func TestDecodeWalRecordAllocs(t *testing.T) {
	evs := PackedEvents{Recs: make([]Packed, 0, 64)}
	for _, s := range walSamples() {
		var op WalOp
		if err := DecodeWalRecord(&op, &evs, s.payload, s.numTx, s.numObj); err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		if op.Op.Arg.Kind == spec.VStr || len(evs.Strs) > 0 {
			evs = PackedEvents{Recs: evs.Recs[:0]}
			continue
		}
		got := testing.AllocsPerRun(100, func() {
			evs.Recs = evs.Recs[:0]
			if err := DecodeWalRecord(&op, &evs, s.payload, s.numTx, s.numObj); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs per decode, want 0", s.name, got)
		}
		evs.Recs = evs.Recs[:0]
	}
}

// TestWalNames: WalNames counts the names a decode adds and their label
// bytes, and a corrupt label length is capped at the record's size.
func TestWalNames(t *testing.T) {
	for _, c := range []struct {
		name                     string
		payload                  []byte
		txNames, objects, labels int
	}{
		{"object", AppendWalObjectDef(nil, "x", "register"), 0, 1, 0},
		{"tx", AppendWalTxDef(nil, tname.Root, "s12.3", tname.NoObj, spec.Op{}), 1, 0, 5},
		{"access", AppendWalTxDef(nil, 1, "a1", 0, spec.Op{Kind: spec.OpWrite, Arg: spec.Str("long")}), 1, 0, 2},
		{"events", AppendWalEvents(nil, NewEvent(Create, 0), NewEvent(RequestCreate, 1)), 0, 0, 0},
		{"huge-label", []byte{byte(WalTxDef), 0, 0xff, 0xff, 0xff, 0x7f}, 1, 0, 6},
		{"empty", nil, 0, 0, 0},
	} {
		if n, o, l := WalNames(c.payload); n != c.txNames || o != c.objects || l != c.labels {
			t.Errorf("%s: WalNames = %d, %d, %d, want %d, %d, %d", c.name, n, o, l, c.txNames, c.objects, c.labels)
		}
	}
}

// TestDecodeWalOpAllocs gates the decoder's allocations at what its result
// holds: one per string longer than a byte (the runtime interns shorter
// ones) and one for a non-empty event slice. No reader, no buffer, no
// intermediate value.
func TestDecodeWalOpAllocs(t *testing.T) {
	for _, s := range walSamples() {
		op, err := DecodeWalOp(s.payload, s.numTx, s.numObj)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		strs := []string{op.Label, op.SpecName, op.Op.Arg.Str}
		for _, e := range op.Events {
			strs = append(strs, e.Val.Str)
		}
		want := 0
		for _, str := range strs {
			if len(str) > 1 {
				want++
			}
		}
		if len(op.Events) > 0 {
			want++
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeWalOp(s.payload, s.numTx, s.numObj); err != nil {
				t.Fatal(err)
			}
		})
		if int(got) > want {
			t.Errorf("%s: %v allocs per decode, its result holds %d", s.name, got, want)
		}
	}
}

// FuzzDecodeWalOp holds the slice-cursor decoder to four properties on
// arbitrary payloads and counts. It never panics. DecodeWalRecord decodes
// what it decodes, into its caller's scratch (checkDecodeRecord). It
// agrees with
// refDecodeWalOp — the same decoder over a bufio.Reader — on the verdict,
// the decoded value and the error text. And what it accepts re-encodes to
// a canonical payload: one that decodes to the same value and re-encodes
// to itself, no longer than the input. (Not always the input itself: both
// decoders accept a non-minimal varint and a bool payload other than 0/1,
// and the encoders write neither.)
func FuzzDecodeWalOp(f *testing.F) {
	for _, s := range walSamples() {
		f.Add(s.payload, uint8(s.numTx), uint8(s.numObj), uint8(0))
	}
	for _, c := range walRejects() {
		f.Add(c.payload, uint8(c.numTx), uint8(c.numObj), uint8(3))
	}
	// Ten continuation bytes and nothing after: an overflow to
	// binary.ReadUvarint, a short buffer to binary.Uvarint.
	f.Add(append([]byte{byte(WalEvents)}, bytes.Repeat([]byte{0x80}, 10)...), uint8(1), uint8(0), uint8(1))
	f.Add([]byte{byte(WalEvents), 0x81, 0x00, byte(ReportCommit), 0, byte(spec.VBool), 4}, uint8(1), uint8(0), uint8(2))
	// Op kind 256, whose low byte alone is 0: a decoder that narrows before
	// it compares accepts it and re-encodes op 0, which it then refuses.
	f.Add([]byte{byte(WalTxDef), 0, 1, 'a', 0, 0x80, 0x02, byte(spec.VNil)}, uint8(1), uint8(1), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, ntx, nobj, pre uint8) {
		numTx, numObj := int(ntx), int(nobj)
		// The in-place decoder, into a scratch that holds 1 to 4 events
		// and 0 to 63 spare slots, is the plain decoder.
		checkDecodeRecord(t, payload, numTx, numObj, 1+int(pre%4), int(pre/4))
		op, err := DecodeWalOp(payload, numTx, numObj)
		refOp, refErr := refDecodeWalOp(payload, numTx, numObj)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("verdicts differ on %x (numTx=%d numObj=%d):\n  cursor: %v\n  bufio:  %v", payload, numTx, numObj, err, refErr)
		}
		if !reflect.DeepEqual(op, refOp) {
			t.Fatalf("values differ on %x:\n  cursor: %+v\n  bufio:  %+v", payload, op, refOp)
		}
		if err != nil {
			return
		}
		re := reencodeWalOp(op)
		if len(re) > len(payload) {
			t.Fatalf("re-encoding %x grew to %x", payload, re)
		}
		op2, err := DecodeWalOp(re, numTx, numObj)
		if err != nil {
			t.Fatalf("re-encoding %x of accepted %x rejected: %v", re, payload, err)
		}
		if !reflect.DeepEqual(op, op2) {
			t.Fatalf("re-encoding %x of %x decodes to %+v, want %+v", re, payload, op2, op)
		}
		if re2 := reencodeWalOp(op2); !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", re, re2)
		}
	})
}

// refDecodeWalOp is DecodeWalOp over a reader rather than a slice:
// binReader over a bufio.Reader over a bytes.Reader, values through
// TraceValue and decodeValue — the decoder binary traces and WAL records
// had before both moved to Cursor. FuzzDecodeWalOp compares the two.
func refDecodeWalOp(payload []byte, numTx, numObjects int) (WalOp, error) {
	br := binReader{r: bufio.NewReader(bytes.NewReader(payload))}
	kb, err := br.readByte("wal record kind")
	if err != nil {
		return WalOp{}, err
	}
	op := WalOp{Kind: WalKind(kb), Obj: tname.NoObj}
	switch op.Kind {
	case WalObjectDef:
		if op.Label, err = br.readStr("wal object label"); err != nil {
			return WalOp{}, err
		}
		if op.SpecName, err = br.readStr("wal object spec"); err != nil {
			return WalOp{}, err
		}
		if op.Label == "" {
			return WalOp{}, fmt.Errorf("wal: object definition with empty label")
		}
		if spec.ByName(op.SpecName) == nil {
			return WalOp{}, fmt.Errorf("wal: object %q has unknown spec %q", op.Label, op.SpecName)
		}
	case WalTxDef:
		parent, err := br.readVarint("tx parent")
		if err != nil {
			return WalOp{}, err
		}
		if op.Label, err = br.readStr("tx label"); err != nil {
			return WalOp{}, err
		}
		obj, err := br.readVarint("tx obj")
		if err != nil {
			return WalOp{}, err
		}
		if obj >= 0 {
			opk, err := br.readUvarint("tx op")
			if err != nil {
				return WalOp{}, err
			}
			if opk == 0 || opk > uint64(spec.OpDeq) {
				return WalOp{}, fmt.Errorf("nsgb: tx op: unknown op kind %d", opk)
			}
			op.Op.Kind = spec.OpKind(opk)
			tv, err := br.readValue("tx op arg")
			if err != nil {
				return WalOp{}, err
			}
			if op.Op.Arg, err = decodeValue(tv); err != nil {
				return WalOp{}, err
			}
		}
		if parent < 0 || parent >= int64(numTx) {
			return WalOp{}, fmt.Errorf("wal: tx definition names unknown parent %d", parent)
		}
		op.Parent = tname.TxID(parent)
		if op.Label == "" {
			return WalOp{}, fmt.Errorf("wal: tx definition with empty label")
		}
		if obj != int64(tname.NoObj) {
			if obj < 0 || obj >= int64(numObjects) {
				return WalOp{}, fmt.Errorf("wal: tx definition accesses unknown object %d", obj)
			}
			op.Obj = tname.ObjID(obj)
		}
	case WalEvents:
		count, err := br.readUvarint("wal event count")
		if err != nil {
			return WalOp{}, err
		}
		if count > uint64(len(payload)) {
			return WalOp{}, fmt.Errorf("wal: event count %d exceeds payload size", count)
		}
		op.Events = make(Behavior, 0, count)
		for i := uint64(0); i < count; i++ {
			e, err := refDecodeEvent(br, numTx, numObjects)
			if err != nil {
				return WalOp{}, err
			}
			op.Events = append(op.Events, e)
		}
	default:
		return WalOp{}, fmt.Errorf("wal: unknown record kind %d", kb)
	}
	if _, err := br.r.ReadByte(); err != io.EOF {
		return WalOp{}, fmt.Errorf("wal: trailing bytes after %c record", byte(op.Kind))
	}
	return op, nil
}

func refDecodeEvent(br binReader, numTx, numObjects int) (Event, error) {
	kb, err := br.readByte("event kind")
	if err != nil {
		return Event{}, err
	}
	kind := Kind(kb)
	if kind < Create || kind > InformAbort {
		return Event{}, fmt.Errorf("nsgb: unknown event kind %d", kb)
	}
	txu, err := br.readUvarint("event tx")
	if err != nil {
		return Event{}, err
	}
	if txu >= uint64(numTx) {
		return Event{}, fmt.Errorf("nsgb: event names unknown tx %d", txu)
	}
	e := Event{Kind: kind, Tx: tname.TxID(txu), Val: spec.Nil, Obj: tname.NoObj}
	switch kind {
	case RequestCommit, ReportCommit:
		tv, err := br.readValue("event val")
		if err != nil {
			return Event{}, err
		}
		if e.Val, err = decodeValue(tv); err != nil {
			return Event{}, err
		}
	case InformCommit, InformAbort:
		obju, err := br.readUvarint("event obj")
		if err != nil {
			return Event{}, err
		}
		if obju >= uint64(numObjects) {
			return Event{}, fmt.Errorf("nsgb: event informs unknown object %d", obju)
		}
		e.Obj = tname.ObjID(obju)
	default:
		// Fully described by (kind, tx).
	}
	return e, nil
}

// binReader reads the NSGB primitives off a bufio.Reader, turning any short
// read into a decode error.
type binReader struct {
	r *bufio.Reader
}

func (br binReader) readStr(what string) (string, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return "", fmt.Errorf("nsgb: %s length: %w", what, err)
	}
	if n > maxBinaryStr {
		return "", fmt.Errorf("nsgb: %s length %d exceeds limit", what, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br.r, b); err != nil {
		return "", fmt.Errorf("nsgb: %s: %w", what, err)
	}
	return string(b), nil
}

func (br binReader) readUvarint(what string) (uint64, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return 0, fmt.Errorf("nsgb: %s: %w", what, err)
	}
	return n, nil
}

func (br binReader) readVarint(what string) (int64, error) {
	n, err := binary.ReadVarint(br.r)
	if err != nil {
		return 0, fmt.Errorf("nsgb: %s: %w", what, err)
	}
	return n, nil
}

func (br binReader) readByte(what string) (byte, error) {
	b, err := br.r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("nsgb: %s: %w", what, err)
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
		return nil, fmt.Errorf("nsgb: %s has unknown value kind %d", what, kb)
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

// TestAppendWalPackedMatchesEvent: an event encoded from its packed record
// is the same bytes as the event itself, for every kind and value kind.
func TestAppendWalPackedMatchesEvent(t *testing.T) {
	var strs []string
	for _, e := range []Event{
		NewEvent(RequestCreate, 1),
		NewEvent(Create, 300),
		NewValEvent(RequestCommit, 2, spec.Int(-7)),
		NewValEvent(RequestCommit, 2, spec.Nil),
		NewEvent(Commit, 2),
		NewInform(InformCommit, 2, 0),
		NewValEvent(ReportCommit, 2, spec.Str("hi")),
		NewEvent(Abort, 1),
		NewInform(InformAbort, 1, 200),
		NewEvent(ReportAbort, 1),
		NewValEvent(RequestCommit, 1, spec.OK),
		NewValEvent(ReportCommit, 1, spec.Bool(true)),
		NewValEvent(ReportCommit, 1, spec.Str("")),
	} {
		var rec Packed
		rec, strs = Pack(e, strs)
		if got, want := AppendWalPacked(nil, rec, strs), AppendWalEvent(nil, e); !bytes.Equal(got, want) {
			t.Errorf("%v packed encodes to %x, want %x", e, got, want)
		}
	}
}
