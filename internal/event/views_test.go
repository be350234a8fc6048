package event

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// stringsTrace builds a trace whose object labels, transaction labels,
// access arguments and event values are strings, some long enough to leave
// the decoder's fast paths.
func stringsTrace() (*tname.Tree, Behavior) {
	tr := tname.NewTree()
	q := tr.AddObject("queue-object", spec.Queue{})
	t1 := tr.Child(tname.Root, "top-level")
	b := Behavior{NewEvent(Create, tname.Root), NewEvent(RequestCreate, t1), NewEvent(Create, t1)}
	for i, s := range []string{"first", "", strings.Repeat("long argument ", 20)} {
		a := tr.Access(t1, strings.Repeat("access", i+1), q, spec.Op{Kind: spec.OpEnq, Arg: spec.Str(s)})
		b = append(b, NewEvent(RequestCreate, a), NewEvent(Create, a),
			NewValEvent(RequestCommit, a, spec.Str("value of "+s)), NewEvent(Commit, a),
			NewValEvent(ReportCommit, a, spec.Str(s+" reported")))
	}
	return tr, b
}

// decodedStrings lists every string a decoded trace holds: object labels,
// transaction labels, string arguments and string event values.
func decodedStrings(tr *tname.Tree, b Behavior) []string {
	var out []string
	for x := tname.ObjID(0); int(x) < tr.NumObjects(); x++ {
		out = append(out, tr.ObjectLabel(x))
	}
	for id := tname.TxID(0); int(id) < tr.NumTx(); id++ {
		out = append(out, tr.Label(id))
		if tr.IsAccess(id) {
			out = append(out, tr.AccessOp(id).Arg.Str)
		}
	}
	for _, e := range b {
		out = append(out, e.Val.Str)
	}
	return out
}

// junk overwrites data, as a caller reusing its buffer would.
func junk(data []byte) {
	for i := range data {
		data[i] = 0xA5
	}
}

// TestDecodedStringsOutliveInput: the decoders' strings are views only of
// bytes they own. Once a decode is done, the caller may overwrite its
// input, and every label, string argument and string event value the
// decode returned stays as it was: through ReadBinaryTrace, through
// NewBinaryDecoder and Next, with a reader that reports its length and one
// that does not, through a header read off a caller's slice, and through
// DecodeWalRecord's string arguments and event values (its labels are
// views of the payload by contract) and DecodeWalOp's strings.
func TestDecodedStringsOutliveInput(t *testing.T) {
	tr, b := stringsTrace()
	want := decodedStrings(tr, b)
	check := func(what string, decode func(data []byte) (*tname.Tree, Behavior)) {
		t.Helper()
		data := MarshalBinaryTrace(tr, b)
		gtr, gb := decode(data)
		junk(data)
		got := decodedStrings(gtr, gb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: string %d became %q after the input was overwritten, want %q", what, i, got[i], want[i])
			}
		}
	}
	readers := map[string]func([]byte) io.Reader{
		"bytes.Reader":   func(d []byte) io.Reader { return bytes.NewReader(d) },
		"one-byte reads": func(d []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(d)) },
	}
	for name, reader := range readers {
		check("ReadBinaryTrace over "+name, func(data []byte) (*tname.Tree, Behavior) {
			gtr, gb, err := ReadBinaryTrace(reader(data))
			if err != nil {
				t.Fatal(err)
			}
			return gtr, gb
		})
		check("NewBinaryDecoder over "+name, func(data []byte) (*tname.Tree, Behavior) {
			d, err := NewBinaryDecoder(reader(data))
			if err != nil {
				t.Fatal(err)
			}
			var gb Behavior
			for {
				e, err := d.Next()
				if err == io.EOF {
					return d.Tree(), gb
				}
				if err != nil {
					t.Fatal(err)
				}
				gb = append(gb, e)
			}
		})
	}
	check("header over the caller's slice", func(data []byte) (*tname.Tree, Behavior) {
		c := NewCursor(data)
		gtr, err := c.header()
		if err != nil {
			t.Fatal(err)
		}
		return gtr, b
	})

	arg, val := strings.Repeat("argument ", 20), "event value"
	def := AppendWalTxDef(nil, tname.Root, "label", 0, spec.Op{Kind: spec.OpEnq, Arg: spec.Str(arg)})
	evs := AppendWalEvents(nil, NewValEvent(ReportCommit, 1, spec.Str(val)))
	var op WalOp
	var packed PackedEvents
	if err := DecodeWalRecord(&op, &packed, def, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := DecodeWalRecord(&op, &packed, evs, 2, 1); err != nil {
		t.Fatal(err)
	}
	plain, err := DecodeWalOp(def, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	junk(def)
	junk(evs)
	if op.Op.Arg.Str != arg || plain.Op.Arg.Str != arg || plain.Label != "label" {
		t.Fatalf("WAL strings changed with their payload: DecodeWalRecord's argument %q, DecodeWalOp's %q and label %q",
			op.Op.Arg.Str, plain.Op.Arg.Str, plain.Label)
	}
	if len(packed.Strs) != 1 || packed.Strs[0] != val {
		t.Fatalf("DecodeWalRecord's string values %q changed with their payload, want [%q]", packed.Strs, val)
	}
}
