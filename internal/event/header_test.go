package event

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// marshalBinaryHeader writes t's object and transaction tables, then an
// empty event section, in the NSGB format — entry for entry, with no check,
// so that a malformed table stays malformed.
func marshalBinaryHeader(t *testing.T, tr *Trace) []byte {
	t.Helper()
	buf := append([]byte(nil), binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, binaryVersion)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Objects)))
	for _, o := range tr.Objects {
		buf = AppendString(buf, o.Label)
		buf = AppendString(buf, o.Spec)
	}
	buf = binary.AppendUvarint(buf, uint64(len(tr.Tx)))
	for _, tt := range tr.Tx {
		buf = binary.AppendVarint(buf, int64(tt.Parent))
		buf = AppendString(buf, tt.Label)
		buf = binary.AppendVarint(buf, int64(tt.Obj))
		if tt.Obj >= 0 {
			kind, ok := opKindByName[tt.Op]
			if !ok {
				t.Fatalf("fixture op %q", tt.Op)
			}
			arg, err := decodeValue(tt.OpArg)
			if err != nil {
				t.Fatal(err)
			}
			buf = binary.AppendUvarint(buf, uint64(kind))
			buf = AppendValue(buf, arg)
		}
	}
	return binary.AppendUvarint(buf, 0)
}

// TestHeaderRejectionsAgree: both codecs run a header through the same
// checks, so each malformed table is refused by ReadTrace (JSON) and
// ReadBinaryTrace with one and the same message.
func TestHeaderRejectionsAgree(t *testing.T) {
	t0 := TraceTx{Parent: -1, Label: "T0", Obj: -1}
	child := func(parent int32, label string) TraceTx { return TraceTx{Parent: parent, Label: label, Obj: -1} }
	read := func(parent int32, label string, obj int32) TraceTx {
		return TraceTx{Parent: parent, Label: label, Obj: obj, Op: "read"}
	}
	x := []TraceObject{{Label: "x", Spec: "register"}}
	for _, c := range []struct {
		name    string
		objects []TraceObject
		tx      []TraceTx
		want    string
	}{
		{"entry 0 not T0", x, []TraceTx{child(0, "T0"), child(0, "a")}, "entry 0 must be T0"},
		{"forward parent", x, []TraceTx{t0, child(2, "a"), child(0, "b")}, "tx 1 has bad parent 2"},
		{"self parent", x, []TraceTx{t0, child(1, "a")}, "tx 1 has bad parent 1"},
		{"negative parent", x, []TraceTx{t0, child(-1, "a")}, "tx 1 has bad parent -1"},
		{"very negative parent", x, []TraceTx{t0, child(-7, "a")}, "tx 1 has bad parent -7"},
		{"child of an access", x, []TraceTx{t0, read(0, "r", 0), child(1, "c")}, "tx 2 is a child of access 1"},
		{"duplicate sibling label", x, []TraceTx{t0, child(0, "a"), child(0, "a")}, `tx 2 duplicates name "a" under parent 0`},
		{"duplicate access label", x, []TraceTx{t0, child(0, "a"), read(1, "r", 0), read(1, "r", 0)}, `tx 3 duplicates name "r" under parent 1`},
		{"unknown object", x, []TraceTx{t0, read(0, "r", 1)}, "tx 1 accesses unknown object 1"},
		{"unknown spec", []TraceObject{{Label: "x", Spec: "martian"}}, []TraceTx{t0}, `unknown spec "martian"`},
		{"reused object label", []TraceObject{x[0], {Label: "x", Spec: "counter"}}, []TraceTx{t0}, `object 1 reuses label "x"`},
	} {
		tr := &Trace{Objects: c.objects, Tx: c.tx}
		js, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, _, jerr := ReadTrace(bytes.NewReader(js))
		_, _, berr := ReadBinaryTrace(bytes.NewReader(marshalBinaryHeader(t, tr)))
		switch {
		case jerr == nil || berr == nil:
			t.Errorf("%s: accepted (JSON %v, binary %v)", c.name, jerr, berr)
		case jerr.Error() != berr.Error():
			t.Errorf("%s: the codecs disagree:\n JSON   %v\n binary %v", c.name, jerr, berr)
		case !strings.Contains(jerr.Error(), c.want):
			t.Errorf("%s: %v, want %q", c.name, jerr, c.want)
		}
	}
	// The same label under two parents is no duplicate, and both codecs
	// take it.
	ok := &Trace{Objects: x, Tx: []TraceTx{t0, child(0, "a"), child(1, "a"), read(2, "a", 0)}}
	js, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	jtr, _, jerr := ReadTrace(bytes.NewReader(js))
	btr, _, berr := ReadBinaryTrace(bytes.NewReader(marshalBinaryHeader(t, ok)))
	if jerr != nil || berr != nil {
		t.Fatalf("a label reused across parents refused: JSON %v, binary %v", jerr, berr)
	}
	for id := tname.TxID(0); int(id) < jtr.NumTx(); id++ {
		if jtr.Name(id) != btr.Name(id) {
			t.Errorf("tx %d: JSON %s, binary %s", id, jtr.Name(id), btr.Name(id))
		}
	}
}

// TestBinaryRejectsOverclaimedTxCount: a tx count the input cannot hold is
// refused before the decoder reserves room for it — an entry takes at
// least three bytes — so a forged count fails fast instead of allocating.
func TestBinaryRejectsOverclaimedTxCount(t *testing.T) {
	header := func(n uint64, body []byte) []byte {
		buf := append([]byte(nil), binaryMagic[:]...)
		buf = binary.AppendUvarint(buf, binaryVersion)
		buf = binary.AppendUvarint(buf, 0) // no objects
		buf = binary.AppendUvarint(buf, n)
		return append(buf, body...)
	}
	t0 := appendTxDef(nil, tname.None, "T0", tname.NoObj, spec.Op{})
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"2^40 entries, none present", header(1<<40, nil)},
		{"2^40 entries, one present", header(1<<40, t0)},
		{"2^62 entries", header(1<<62, t0)},
		{"max uint64 entries", header(^uint64(0), t0)},
		{"two entries in five bytes", header(2, t0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadBinaryTrace(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds input size") {
			t.Errorf("%s: %v, want the count refused against the input size", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", c.name, grew)
		}
	}
}

// TestBinaryHeaderAllocs: decoding a header allocates nothing per name —
// the names go into a tree reserved to the declared count, and the labels
// are cut out of one copy of the transaction table. Only the duplicate-name
// map grows with the table, by one table of slots per several hundred
// names. Encoding the header allocates nothing per name either: the labels
// are read out of the tree's text without a copy, and only the output
// buffer grows.
func TestBinaryHeaderAllocs(t *testing.T) {
	allocs := func(names int) (decode, encode float64) {
		tr := tname.NewTree()
		x := tr.AddObject("x", spec.Register{})
		parents := []tname.TxID{tname.Root}
		for i := 0; len(parents) < names; i++ {
			p := parents[i%len(parents)]
			parents = append(parents, tr.Child(p, "c"+strconv.Itoa(i)))
			tr.Access(p, "a"+strconv.Itoa(i), x, spec.Op{Kind: spec.OpWrite, Arg: spec.Str("v" + strconv.Itoa(i))})
		}
		data := MarshalBinaryTrace(tr, nil)
		decode = testing.AllocsPerRun(10, func() {
			c := NewCursor(data)
			if _, err := c.header(); err != nil {
				t.Fatal(err)
			}
		})
		encode = testing.AllocsPerRun(10, func() { MarshalBinaryTrace(tr, nil) })
		return decode, encode
	}
	smallDec, smallEnc := allocs(100)
	largeDec, largeEnc := allocs(10000)
	for _, c := range []struct {
		what         string
		small, large float64
	}{{"decoding", smallDec, largeDec}, {"encoding", smallEnc, largeEnc}} {
		if perName := (c.large - c.small) / (20000 - 200); perName > 0.01 {
			t.Errorf("%s a header of 20 000 names takes %.0f allocations, one of 200 takes %.0f: %.3f per name, want < 0.01",
				c.what, c.large, c.small, perName)
		}
	}
}
