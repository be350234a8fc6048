package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
BenchmarkE1MossSerialCorrectness-8   	     100	   1418009 ns/op	  359730 B/op	    5889 allocs/op
BenchmarkE15StreamingCheck/toplevel=8-8   	   10000	    140505 ns/op	     271 events	   98366 B/op	     844 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	s, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s["BenchmarkE1MossSerialCorrectness"]
	if !ok {
		t.Fatalf("E1 not parsed; got %v", s)
	}
	if e.NsOp != 1418009 || e.BOp != 359730 || e.AllocsOp != 5889 {
		t.Fatalf("E1 parsed wrong: %+v", e)
	}
	e, ok = s["BenchmarkE15StreamingCheck/toplevel=8"]
	if !ok || e.AllocsOp != 844 {
		t.Fatalf("sub-benchmark parsed wrong: %+v (ok=%v)", e, ok)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("expected an error for input without benchmark lines")
	}
}

func TestDiffGate(t *testing.T) {
	oldS := Suite{"BenchmarkX": {NsOp: 100, BOp: 1000, AllocsOp: 10}}
	improved := Suite{"BenchmarkX": {NsOp: 50, BOp: 500, AllocsOp: 5}}
	regressed := Suite{"BenchmarkX": {NsOp: 100, BOp: 1000, AllocsOp: 20}}

	var out, errb bytes.Buffer
	if code := diff(&out, &errb, oldS, improved, "", 25, 25); code != 0 {
		t.Fatalf("improvement gated: code %d, stderr %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := diff(&out, &errb, oldS, regressed, "", 25, -1); code != 1 {
		t.Fatalf("100%% allocs regression passed the 25%% gate: code %d", code)
	}
	if !strings.Contains(errb.String(), "allocs/op regressed") {
		t.Fatalf("missing regression message: %s", errb.String())
	}
	// The regression is invisible when -match excludes the benchmark...
	out.Reset()
	errb.Reset()
	if code := diff(&out, &errb, oldS, regressed, "NoSuchBenchmark", 25, -1); code != 2 {
		t.Fatalf("want exit 2 for empty comparison, got %d", code)
	}
	// ...and ns/op changes alone never gate (timing is hardware-noise).
	slower := Suite{"BenchmarkX": {NsOp: 500, BOp: 1000, AllocsOp: 10}}
	out.Reset()
	errb.Reset()
	if code := diff(&out, &errb, oldS, slower, "", 25, 25); code != 0 {
		t.Fatalf("ns/op slowdown tripped the allocation gate: code %d", code)
	}
}

// TestGateFailsOnMissingBenchmark: with a gate set, a baseline benchmark
// that matches -match and is absent from the new side is a failure naming
// it — a renamed or deleted benchmark must not slip out of the gate while
// another common name keeps the comparison non-empty.
func TestGateFailsOnMissingBenchmark(t *testing.T) {
	oldS := Suite{
		"BenchmarkKept":    {AllocsOp: 0},
		"BenchmarkGone":    {AllocsOp: 0},
		"BenchmarkUngated": {AllocsOp: 4},
	}
	cases := []struct {
		name                string
		newS                Suite
		match               string
		maxAllocs, maxBytes float64
		want                int
		naming              string
	}{
		{name: "all present", newS: Suite{"BenchmarkKept": {}, "BenchmarkGone": {}, "BenchmarkUngated": {AllocsOp: 4}}, maxAllocs: 25, maxBytes: 25, want: 0},
		{name: "gated name gone, allocs gate", newS: Suite{"BenchmarkKept": {}, "BenchmarkUngated": {AllocsOp: 4}}, maxAllocs: 25, maxBytes: -1, want: 1, naming: "BenchmarkGone"},
		{name: "gated name gone, bytes gate", newS: Suite{"BenchmarkKept": {}, "BenchmarkUngated": {AllocsOp: 4}}, maxAllocs: -1, maxBytes: 25, want: 1, naming: "BenchmarkGone"},
		{name: "renamed", newS: Suite{"BenchmarkKept": {}, "BenchmarkGoneRenamed": {}, "BenchmarkUngated": {AllocsOp: 4}}, match: "Kept|Gone", maxAllocs: 25, maxBytes: 25, want: 1, naming: "BenchmarkGone "},
		{name: "every gated name gone", newS: Suite{"BenchmarkUngated": {AllocsOp: 4}}, match: "Kept|Gone", maxAllocs: 25, maxBytes: 25, want: 1, naming: "BenchmarkKept"},
		{name: "missing name outside -match", newS: Suite{"BenchmarkKept": {}, "BenchmarkGone": {}}, match: "Kept|Gone", maxAllocs: 25, maxBytes: 25, want: 0},
		{name: "no gate: a plain diff skips it", newS: Suite{"BenchmarkKept": {}}, maxAllocs: -1, maxBytes: -1, want: 0},
		{name: "new benchmark on the new side only", newS: Suite{"BenchmarkKept": {}, "BenchmarkGone": {}, "BenchmarkUngated": {AllocsOp: 4}, "BenchmarkNew": {AllocsOp: 9}}, maxAllocs: 25, maxBytes: 25, want: 0},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := diff(&out, &errb, oldS, c.newS, c.match, c.maxAllocs, c.maxBytes); code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, code, c.want, errb.String())
		}
		if c.naming != "" && !strings.Contains(errb.String(), c.naming) {
			t.Errorf("%s: stderr %q does not name %q", c.name, errb.String(), c.naming)
		}
	}
}

func TestZeroBaseGate(t *testing.T) {
	oldS := Suite{"BenchmarkX": {AllocsOp: 0}}
	newS := Suite{"BenchmarkX": {AllocsOp: 3}}
	var out, errb bytes.Buffer
	if code := diff(&out, &errb, oldS, newS, "", 25, -1); code != 1 {
		t.Fatalf("regression from a zero-alloc baseline passed the gate: code %d", code)
	}
}

func TestWriteCurrentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "combined.json")

	var out, errb bytes.Buffer
	code := run([]string{"-write-current", path}, strings.NewReader(sampleBench), &out, &errb)
	if code != 0 {
		t.Fatalf("write-current failed: code %d, stderr %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c Combined
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Current) != 2 || len(c.Baseline) != 2 {
		t.Fatalf("first write must seed both sides: %+v", c)
	}

	// A second write must refresh current but keep the baseline.
	improved := strings.ReplaceAll(sampleBench, "5889 allocs/op", "100 allocs/op")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-write-current", path}, strings.NewReader(improved), &out, &errb); code != 0 {
		t.Fatalf("second write-current failed: code %d, stderr %s", code, errb.String())
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.Baseline["BenchmarkE1MossSerialCorrectness"].AllocsOp != 5889 {
		t.Fatalf("baseline was overwritten: %+v", c.Baseline)
	}
	if c.Current["BenchmarkE1MossSerialCorrectness"].AllocsOp != 100 {
		t.Fatalf("current was not refreshed: %+v", c.Current)
	}

	// And -suite must gate the combined file end to end.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-suite", path, "-max-allocs-regress", "25"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("improved suite gated: code %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "E1MossSerialCorrectness") {
		t.Fatalf("diff table missing benchmark: %s", out.String())
	}
}

func TestParseMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-parse"}, strings.NewReader(sampleBench), &out, &errb); code != 0 {
		t.Fatalf("parse mode failed: code %d, stderr %s", code, errb.String())
	}
	var s Suite
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("parse mode output is not a suite: %v", err)
	}
	if len(s) != 2 {
		t.Fatalf("want 2 benchmarks, got %d", len(s))
	}
}

const sampleSweep = `# ServerSweep/c4/r0.80/z0.0 committed=359 failed=0 elapsed=251ms ok=true
BenchmarkServerSweep/c4/r0.80/z0.0 359 698000 ns/op 256 p50-us 8192 p99-us 1433.5 tx/s
BenchmarkServerGroupCommit-8   	12754850	       186.2 ns/op	       0 B/op	       0 allocs/op
`

func TestParseBenchSweepUnits(t *testing.T) {
	s, err := parseBench(strings.NewReader(sampleSweep))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s["BenchmarkServerSweep/c4/r0.80/z0.0"]
	if !ok {
		t.Fatalf("sweep cell not parsed; got %v", s)
	}
	if e.NsOp != 698000 || e.P50Us != 256 || e.P99Us != 8192 || e.TxS != 1433.5 {
		t.Fatalf("sweep units parsed wrong: %+v", e)
	}
	if g := s["BenchmarkServerGroupCommit"]; g.AllocsOp != 0 || g.NsOp != 186.2 {
		t.Fatalf("micro benchmark parsed wrong: %+v", g)
	}
}

func TestDiffLatencyColumns(t *testing.T) {
	oldS := Suite{"BenchmarkServerSweep/c4": {NsOp: 100, P50Us: 200, P99Us: 800, TxS: 1000}}
	newS := Suite{"BenchmarkServerSweep/c4": {NsOp: 100, P50Us: 100, P99Us: 1600, TxS: 2000}}
	var out, errb bytes.Buffer
	if code := diff(&out, &errb, oldS, newS, "", -1, -1); code != 0 {
		t.Fatalf("latency-only diff failed: code %d, stderr %s", code, errb.String())
	}
	for _, want := range []string{"p50-us", "p99-us", "tx/s", "-50.0%", "+100.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff table missing %q:\n%s", want, out.String())
		}
	}
	// Micro-benchmark-only comparisons keep the classic 4-column table.
	micro := Suite{"BenchmarkX": {NsOp: 100, BOp: 10, AllocsOp: 1}}
	out.Reset()
	if code := diff(&out, &errb, micro, micro, "", -1, -1); code != 0 {
		t.Fatalf("micro diff failed: code %d", code)
	}
	if strings.Contains(out.String(), "p50-us") {
		t.Fatalf("latency columns leaked into a micro-only table:\n%s", out.String())
	}
}

// TestBaselineRatchet: -write-current with a gate's margins lowers a
// baseline column that the fresh run beats by more than the margin, to the
// fresh value, and leaves every other column, and every row it does not
// beat by that much, as it was: it never raises one.
func TestBaselineRatchet(t *testing.T) {
	for _, tc := range []struct {
		name            string
		base, cur       Entry
		maxAllocs, maxB float64
		want            Entry
		lowered         bool
	}{
		{"a win past both margins lowers both",
			Entry{NsOp: 100, BOp: 1000, AllocsOp: 10}, Entry{NsOp: 50, BOp: 500, AllocsOp: 5, mem: true},
			25, 25, Entry{NsOp: 100, BOp: 500, AllocsOp: 5}, true},
		{"a win inside the margin is noise",
			Entry{BOp: 1000, AllocsOp: 10}, Entry{BOp: 800, AllocsOp: 8, mem: true},
			25, 25, Entry{BOp: 1000, AllocsOp: 10}, false},
		{"only the column that won moves",
			Entry{BOp: 299, AllocsOp: 10}, Entry{BOp: 0, AllocsOp: 10, mem: true},
			25, 25, Entry{BOp: 0, AllocsOp: 10}, true},
		{"a regression never raises the baseline",
			Entry{BOp: 100, AllocsOp: 1}, Entry{BOp: 400, AllocsOp: 4, mem: true},
			25, 25, Entry{BOp: 100, AllocsOp: 1}, false},
		{"a zero baseline stays zero",
			Entry{}, Entry{BOp: 8, AllocsOp: 1, mem: true},
			25, 25, Entry{}, false},
		{"a disabled gate ratchets nothing",
			Entry{BOp: 1000, AllocsOp: 10}, Entry{BOp: 10, AllocsOp: 1, mem: true},
			-1, -1, Entry{BOp: 1000, AllocsOp: 10}, false},
		{"one margin set ratchets its column only",
			Entry{BOp: 1000, AllocsOp: 10}, Entry{BOp: 10, AllocsOp: 1, mem: true},
			25, -1, Entry{BOp: 1000, AllocsOp: 1}, true},
		{"a line without -benchmem measured no memory",
			Entry{NsOp: 100, BOp: 1000, AllocsOp: 10}, Entry{NsOp: 90},
			25, 25, Entry{NsOp: 100, BOp: 1000, AllocsOp: 10}, false},
	} {
		base := Suite{"BenchmarkX": tc.base, "BenchmarkGone": tc.base}
		lowered := ratchet(base, Suite{"BenchmarkX": tc.cur}, tc.maxAllocs, tc.maxB)
		if got := base["BenchmarkX"]; got != tc.want {
			t.Errorf("%s: baseline %+v, want %+v", tc.name, got, tc.want)
		}
		if base["BenchmarkGone"] != tc.base {
			t.Errorf("%s: a row missing from the fresh run moved: %+v", tc.name, base["BenchmarkGone"])
		}
		if got := len(lowered) == 1 && lowered[0] == "BenchmarkX"; got != tc.lowered || !tc.lowered && len(lowered) > 0 {
			t.Errorf("%s: lowered %v, want BenchmarkX lowered: %v", tc.name, lowered, tc.lowered)
		}
	}

	// End to end: a fresh run that halves E1's allocations lowers its
	// baseline when the gate's margin is given, and the gate then holds it.
	path := filepath.Join(t.TempDir(), "combined.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-write-current", path}, strings.NewReader(sampleBench), &out, &errb); code != 0 {
		t.Fatalf("write-current failed: code %d, stderr %s", code, errb.String())
	}
	improved := strings.ReplaceAll(sampleBench, "5889 allocs/op", "100 allocs/op")
	out.Reset()
	if code := run([]string{"-write-current", path, "-max-allocs-regress", "25", "-max-bytes-regress", "25"}, strings.NewReader(improved), &out, &errb); code != 0 {
		t.Fatalf("write-current with margins failed: code %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lowered the baseline of BenchmarkE1MossSerialCorrectness") {
		t.Fatalf("the ratchet did not say what it lowered: %s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c Combined
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Baseline["BenchmarkE1MossSerialCorrectness"]; got.AllocsOp != 100 || got.BOp != 359730 {
		t.Fatalf("E1's baseline = %+v, want 100 allocs/op and its B/op unchanged", got)
	}
	if got := c.Baseline["BenchmarkE15StreamingCheck/toplevel=8"]; got.AllocsOp != 844 {
		t.Fatalf("an unchanged row's baseline moved: %+v", got)
	}
	if code := run([]string{"-write-current", path}, strings.NewReader(sampleBench), &out, &errb); code != 0 {
		t.Fatal("rewrite failed")
	}
	errb.Reset()
	if code := run([]string{"-suite", path, "-max-allocs-regress", "25"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Fatalf("the lost win passed the gate: code %d", code)
	}
}
