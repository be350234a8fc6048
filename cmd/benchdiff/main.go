// Command benchdiff turns `go test -bench` text output into JSON and
// compares two benchmark suites, optionally failing on allocation
// regressions — the allocation gate CI runs over the checker benchmarks.
//
// Usage:
//
//	go test -run '^$' -bench E15 -benchmem . | benchdiff -parse > new.json
//	benchdiff -old old.json -new new.json
//	benchdiff -old old.json -new new.json -max-allocs-regress 25
//	go test ... -benchmem . | benchdiff -write-current BENCH_PR3.json
//	go test ... -benchmem . | benchdiff -write-current BENCH_PR3.json -max-allocs-regress 25
//	benchdiff -suite BENCH_PR3.json -match 'E1|E15' -max-allocs-regress 25
//
// A suite file is a JSON object mapping benchmark names to
// {ns_op, b_op, allocs_op}; a combined file (BENCH_PR3.json) holds a
// "baseline" and a "current" suite side by side, so the repository can
// commit the pre-optimization numbers next to the current ones and CI can
// verify the improvement never regresses away. Given a gate's margins,
// -write-current also ratchets the baseline: a row whose fresh allocs/op or
// B/op beats its baseline by more than the margin has that baseline lowered
// to the fresh value, so the next gate run holds the win. It never raises a
// baseline.
//
// Exit status: 0 on success, 1 when a gate is exceeded or a gated baseline
// benchmark is missing from the new side, 2 on usage or I/O errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's measurements. Beyond the standard go-test
// triple, the server sweep (cmd/nestedload -sweep) reports latency
// percentiles and throughput as custom units, so a load run's tail
// behavior diffs like any other benchmark column.
type Entry struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	P50Us    float64 `json:"p50_us,omitempty"`
	P99Us    float64 `json:"p99_us,omitempty"`
	TxS      float64 `json:"tx_s,omitempty"`
	// mem says the line reported B/op and allocs/op (-benchmem), so their
	// zeros are measurements, not absences.
	mem bool
}

// hasLatency reports whether the entry carries the sweep's latency and
// throughput units.
func (e Entry) hasLatency() bool { return e.P50Us != 0 || e.P99Us != 0 || e.TxS != 0 }

// Suite maps benchmark names (GOMAXPROCS suffix stripped) to measurements.
type Suite map[string]Entry

// Combined holds the two sides of a before/after comparison in one file.
type Combined struct {
	Baseline Suite `json:"baseline"`
	Current  Suite `json:"current"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		parse        = fs.Bool("parse", false, "parse `go test -bench` text from stdin and print a JSON suite")
		oldFile      = fs.String("old", "", "baseline suite JSON file")
		newFile      = fs.String("new", "", "candidate suite JSON file")
		suiteFile    = fs.String("suite", "", "combined baseline/current JSON file to diff")
		writeCurrent = fs.String("write-current", "", "parse bench text from stdin and replace the 'current' side of this combined file, lowering a baseline the fresh run beats by more than the -max-*-regress margin")
		match        = fs.String("match", "", "regexp restricting which benchmarks are compared and gated")
		maxAllocs    = fs.Float64("max-allocs-regress", -1, "fail when allocs/op regresses by more than this percent (-1 disables)")
		maxBytes     = fs.Float64("max-bytes-regress", -1, "fail when B/op regresses by more than this percent (-1 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *parse:
		s, err := parseBench(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		return writeJSON(stdout, stderr, s)

	case *writeCurrent != "":
		cur, err := parseBench(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		var c Combined
		if data, err := os.ReadFile(*writeCurrent); err == nil {
			if err := json.Unmarshal(data, &c); err != nil {
				fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *writeCurrent, err)
				return 2
			}
		}
		c.Current = cur
		if c.Baseline == nil {
			// First run: seed the baseline too, so the file is complete.
			c.Baseline = cur
		}
		if lowered := ratchet(c.Baseline, cur, *maxAllocs, *maxBytes); len(lowered) > 0 {
			fmt.Fprintf(stdout, "lowered the baseline of %s\n", strings.Join(lowered, ", "))
		}
		out, err := json.MarshalIndent(&c, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*writeCurrent, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %d benchmarks to the current side of %s\n", len(cur), *writeCurrent)
		return 0

	case *suiteFile != "":
		data, err := os.ReadFile(*suiteFile)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		var c Combined
		if err := json.Unmarshal(data, &c); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *suiteFile, err)
			return 2
		}
		return diff(stdout, stderr, c.Baseline, c.Current, *match, *maxAllocs, *maxBytes)

	case *oldFile != "" && *newFile != "":
		oldS, err := readSuite(*oldFile)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		newS, err := readSuite(*newFile)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		return diff(stdout, stderr, oldS, newS, *match, *maxAllocs, *maxBytes)
	}

	fmt.Fprintln(stderr, "benchdiff: need -parse, -write-current, -suite, or -old and -new")
	return 2
}

func writeJSON(stdout, stderr io.Writer, v any) int {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func readSuite(path string) (Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// gomaxprocsSuffix strips the trailing -N goroutine suffix go test appends
// to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark lines from `go test -bench -benchmem`
// output. With -count > 1 the last sample for a name wins.
func parseBench(r io.Reader) (Suite, error) {
	s := Suite{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		e := s[name]
		// f[1] is the iteration count; then (value, unit) pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", f[i], line)
			}
			switch f[i+1] {
			case "ns/op":
				e.NsOp = v
			case "B/op":
				e.BOp, e.mem = v, true
			case "allocs/op":
				e.AllocsOp, e.mem = v, true
			case "p50-us":
				e.P50Us = v
			case "p99-us":
				e.P99Us = v
			case "tx/s":
				e.TxS = v
			}
		}
		s[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return s, nil
}

// pct computes the percent change from old to new; +∞-ish changes from a
// zero base are reported as 100 per unit gained so gates still trip.
func pct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100 * new
	}
	return (new - old) / old * 100
}

// ratchet lowers each baseline allocs/op and B/op that cur beats by more
// than its margin, a percent (negative: leave that column alone), to cur's
// value, and returns the names of the rows it lowered, sorted. It never
// raises a baseline, and it lowers only from a line that reported memory.
func ratchet(base, cur Suite, maxAllocs, maxBytes float64) []string {
	var lowered []string
	for name, b := range base {
		c, ok := cur[name]
		if !ok || !c.mem {
			continue
		}
		was := b
		if maxAllocs >= 0 && pct(b.AllocsOp, c.AllocsOp) < -maxAllocs {
			b.AllocsOp = c.AllocsOp
		}
		if maxBytes >= 0 && pct(b.BOp, c.BOp) < -maxBytes {
			b.BOp = c.BOp
		}
		if b != was {
			base[name] = b
			lowered = append(lowered, name)
		}
	}
	sort.Strings(lowered)
	return lowered
}

func diff(stdout, stderr io.Writer, oldS, newS Suite, match string, maxAllocs, maxBytes float64) int {
	var re *regexp.Regexp
	if match != "" {
		var err error
		if re, err = regexp.Compile(match); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	var names []string
	for name := range newS {
		if _, ok := oldS[name]; !ok {
			continue
		}
		if re != nil && !re.MatchString(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// With a gate set, a baseline benchmark that is gone from the new side —
	// renamed, deleted, no longer compiling — fails the gate: skipping it
	// would let a gated benchmark leave the gate unnoticed.
	var missing []string
	if maxAllocs >= 0 || maxBytes >= 0 {
		for name := range oldS {
			if _, ok := newS[name]; !ok && (re == nil || re.MatchString(name)) {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
	}
	if len(names) == 0 && len(missing) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no common benchmarks to compare")
		return 2
	}

	// Latency/throughput columns appear when any compared entry carries
	// them (the server sweep does; micro benchmarks do not).
	latency := false
	for _, name := range names {
		if oldS[name].hasLatency() || newS[name].hasLatency() {
			latency = true
			break
		}
	}

	fail := len(missing) > 0
	for _, name := range missing {
		fmt.Fprintf(stderr, "benchdiff: %s is in the baseline but missing from the new side\n", name)
	}
	w := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	w("%-55s %14s %14s %14s", "benchmark", "ns/op", "B/op", "allocs/op")
	if latency {
		w(" %14s %14s %14s", "p50-us", "p99-us", "tx/s")
	}
	w("\n")
	for _, name := range names {
		o, n := oldS[name], newS[name]
		w("%-55s %14s %14s %14s", strings.TrimPrefix(name, "Benchmark"),
			fmt.Sprintf("%+.1f%%", pct(o.NsOp, n.NsOp)),
			fmt.Sprintf("%+.1f%%", pct(o.BOp, n.BOp)),
			fmt.Sprintf("%+.1f%%", pct(o.AllocsOp, n.AllocsOp)))
		if latency {
			w(" %14s %14s %14s",
				fmt.Sprintf("%+.1f%%", pct(o.P50Us, n.P50Us)),
				fmt.Sprintf("%+.1f%%", pct(o.P99Us, n.P99Us)),
				fmt.Sprintf("%+.1f%%", pct(o.TxS, n.TxS)))
		}
		w("\n")
		if maxAllocs >= 0 && pct(o.AllocsOp, n.AllocsOp) > maxAllocs {
			fmt.Fprintf(stderr, "benchdiff: %s allocs/op regressed %.1f%% (%.0f -> %.0f), limit %.1f%%\n",
				name, pct(o.AllocsOp, n.AllocsOp), o.AllocsOp, n.AllocsOp, maxAllocs)
			fail = true
		}
		if maxBytes >= 0 && pct(o.BOp, n.BOp) > maxBytes {
			fmt.Fprintf(stderr, "benchdiff: %s B/op regressed %.1f%% (%.0f -> %.0f), limit %.1f%%\n",
				name, pct(o.BOp, n.BOp), o.BOp, n.BOp, maxBytes)
			fail = true
		}
	}
	if fail {
		return 1
	}
	return 0
}
