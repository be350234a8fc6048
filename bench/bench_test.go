package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// asBenchEnv makes the test binary behave as the bench program. An
// untraced run and -repeat re-execute os.Executable() — under `go test`
// this binary — so the smoke tests drive the very path the driver's runs
// take: a fresh process per segment, its report parsed by the parent.
const asBenchEnv = "NESTEDBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asBenchEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{ten, 0.50, 5},
		{ten, 0.95, 10},
		{ten, 0.90, 9},
		{ten, 0.01, 1},
		{ten, 1.00, 10},
		{[]float64{7}, 0.50, 7},
		{[]float64{1, 2, 3}, 0.50, 2},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
		{nil, 0.50, 0},
	} {
		if got := percentile(tc.in, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.in, tc.q, got, tc.want)
		}
	}
	// 240 samples leave 12 beyond the 95th percentile, 2 beyond the 99th:
	// p95 may be gated, p99 may not.
	if got := beyond(240, 0.95); got != 12 {
		t.Errorf("beyond(240, .95) = %d, want 12", got)
	}
	if got := beyond(240, 0.99); got != 2 {
		t.Errorf("beyond(240, .99) = %d, want 2", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("spread = %v", got)
	}
}

func TestCalibrationScaling(t *testing.T) {
	if got := calFactor(nominalKernel); got != 1 {
		t.Errorf("factor at nominal = %v", got)
	}
	// A machine 25 % slower takes 1.25× as long for the kernel and for the
	// work: the calibrated duration is the nominal one.
	slow := nominalKernel * 5 / 4
	work := 100 * time.Millisecond
	cal := float64(work*5/4) * calFactor(slow)
	if math.Abs(cal-float64(work)) > 1 {
		t.Errorf("calibrated %v, want %v", time.Duration(cal), work)
	}
	if got := calFactor(0); got != 1 {
		t.Errorf("factor of a zero measurement = %v, want 1", got)
	}
	// With a WAL the machine's factor also weighs what a block-and-wake cycle
	// costs: kernel 1.4× and cycles 2.2× slow give a factor in between.
	if got := walFactor(nominalKernel, nominalCycleCPU); got != 1 {
		t.Errorf("walFactor at nominal = %v", got)
	}
	if got := walFactor(nominalKernel*14/10, nominalCycleCPU*22/10); got >= 1/1.4 || got <= 1/2.2 {
		t.Errorf("walFactor = %v, want between 1/2.2 and 1/1.4", got)
	}
	// A window of 10 ms on a machine 2× slow with a disk 4× slow: 4 ms inside
	// fsync, 5 on a processor, 1 asleep: 4 × ¼ + 5 × ½ + 1 = 4.5 ms.
	ms := time.Millisecond
	if got := wallFactor(10*ms, 5*ms, 4*ms, 0.5, 0.25); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("wallFactor = %v, want 0.45", got)
	}
	// CPU time beyond what fsync leaves of the window (another thread's, or
	// the fsync's own) counts only up to the window's end.
	if got := wallFactor(10*ms, 9*ms, 4*ms, 0.5, 0.25); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("wallFactor with overlapping CPU = %v, want 0.4", got)
	}
	if got := wallFactor(10*ms, 10*ms, 0, 0.5, 0); got != 0.5 {
		t.Errorf("wallFactor of a busy window = %v, want the machine's factor", got)
	}
	if got := wallFactor(10*ms, 0, 0, 0.5, 0); got != 1 {
		t.Errorf("wallFactor of a window asleep = %v, want 1", got)
	}
	if got := wallFactor(10*ms, 0, time.Second, 0.5, 0.25); got != 0.25 {
		t.Errorf("wallFactor with fsync beyond the window = %v, want the disk's factor", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	seg := func(committed int, elapsed float64, lat ...float64) *segment {
		return &segment{committed: committed, calElapsed: elapsed, lat: lat, calCPU: float64(committed) * 10}
	}
	segs := []*segment{
		seg(100, 1, 1, 2, 3), // 100 tx/s, p50 2
		seg(100, 4, 7, 8, 9), // 25 tx/s, p50 8
		seg(100, 2, 4, 5, 6), // 50 tx/s, p50 5
	}
	if got := medianOver(segs, "tx_per_s"); got != 50 {
		t.Errorf("tx_per_s = %v, want 50", got)
	}
	if got := medianOver(segs, "tx_p50_us"); got != 5 {
		t.Errorf("tx_p50_us = %v, want 5", got)
	}
	if got := medianOver(segs, "cpu_us_per_tx"); got != 10 {
		t.Errorf("cpu_us_per_tx = %v, want 10", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Kind: spanTx, Parent: -1, Start: 0, End: 100},
		{Kind: spanBegin, Parent: 0, Start: 0, End: 10},
		{Kind: spanAccess, Parent: 0, Start: 10, End: 40},
		{Kind: spanAccess, Parent: 0, Start: 35, End: 50}, // overlaps the previous child by 5
		{Kind: spanCommit, Parent: 0, Start: 80, End: 100},
		{Kind: spanTx, Parent: -1, Start: 200, End: 230}, // no children
	}
	self := selfTimes(spans)
	// children cover [0,50] and [80,100]: 70 of 100.
	if self[0] != 30 {
		t.Errorf("tx self = %d, want 30", self[0])
	}
	if self[2] != 30 || self[5] != 30 {
		t.Errorf("leaf self = %d, %d, want their durations", self[2], self[5])
	}
}

func TestPlansDependOnlyOnSeed(t *testing.T) {
	labels := objectLabels(8)
	m := mix{objects: 8, zipf: 1.5, readRatio: 0.5}
	a := genPlans(deriveSeed(1, 0, 0), 200, m, labels)
	b := genPlans(deriveSeed(1, 0, 0), 200, m, labels)
	c := genPlans(deriveSeed(2, 0, 0), 200, m, labels)
	d := genPlans(deriveSeed(1, 0, 1), 200, m, labels)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different plans")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, d) {
		t.Error("different seeds, same plans")
	}
	reads, children, allRead := 0, 0, 0
	for _, p := range a {
		if p.allRead {
			allRead++
		}
		for _, acc := range p.acc {
			if acc.op == 1 { // spec.OpRead
				reads++
			}
			if acc.child {
				children++
			}
		}
	}
	n := float64(len(a) * accessesPerTx)
	if r := float64(reads) / n; r < 0.4 || r > 0.6 {
		t.Errorf("read ratio %v, want about 0.5", r)
	}
	if r := float64(children) / n; r < 0.15 || r > 0.35 {
		t.Errorf("child ratio %v, want about 0.25", r)
	}
	if allRead == 0 || allRead == len(a) {
		t.Errorf("%d of %d plans all-read", allRead, len(a))
	}
}

func TestDiskCrashLosesUnsyncedTail(t *testing.T) {
	d, err := newTimedDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("wal-00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite := func(s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("durable-")
	mustWrite("bytes")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite("-lost tail")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ReadSegment("wal-00000001.seg"); string(got) != "durable-bytes-lost tail" {
		t.Fatalf("before crash: %q", got)
	}
	lost, err := d.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if lost != int64(len("-lost tail")) {
		t.Errorf("lost %d bytes, want %d", lost, len("-lost tail"))
	}
	if got, _ := d.ReadSegment("wal-00000001.seg"); string(got) != "durable-bytes" {
		t.Errorf("after crash: %q", got)
	}
	if len(d.syncNs) != 1 || d.bytes != int64(len("durable-bytes-lost tail")) {
		t.Errorf("accounting: %d syncs, %d bytes", len(d.syncNs), d.bytes)
	}
	if again, _ := d.Crash(); again != 0 {
		t.Errorf("second crash lost %d bytes", again)
	}
}

func TestCheckValue(t *testing.T) {
	labels := objectLabels(2)
	p := genPlans(3, 1, mix{objects: 2, readRatio: 0}, labels)[0] // four writes
	if err := checkValue(&p, 0, p.acc[0].arg); err == nil {
		t.Error("a write that returns its argument instead of OK passed")
	}
	p.acc[1].obj, p.acc[2].obj = p.acc[0].obj, p.acc[0].obj
	p.acc[2].op = 1 // read after two own writes
	if err := checkValue(&p, 2, p.acc[1].arg); err != nil {
		t.Errorf("read of own latest write: %v", err)
	}
	if err := checkValue(&p, 2, p.acc[0].arg); err == nil && p.acc[0].arg != p.acc[1].arg {
		t.Error("read of an overwritten own write passed")
	}
}

// TestContractMatchesTables keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestContractMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(contractJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with: bash bench/run.sh -contract > BENCHMARK.json")
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at the
// smoke size: every gate, every metric, the span file and the ledger.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv(asBenchEnv, "1")
	dir := t.TempDir()
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", w.name, "-seed", "3", "-seconds", "4",
				"-trace", string(rune('0' + trace)), "-out", dir}
			if rc := realMain(args, &stdout, &stderr); rc != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, rc, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: %+v", w.name, trace, res)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, m.Value)
				}
			}
			if trace == 0 && !strings.Contains(stdout.String(), "segments=2 (one process each)") {
				t.Errorf("%s: the untraced run did not measure two segment processes:\n%s", w.name, stdout.String())
			}
			if trace == 1 {
				if !strings.Contains(stdout.String(), "ledger "+w.name) {
					t.Errorf("%s: no ledger printed", w.name)
				}
				if w.offline {
					continue
				}
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestRepeatTable runs -repeat on one workload: two fresh processes, one
// table row per end-to-end metric. At the smoke size the verdicts mean
// nothing, so either exit code of a completed table passes.
func TestRepeatTable(t *testing.T) {
	t.Setenv(asBenchEnv, "1")
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-repeat", "2", "-workload", "check", "-seconds", "2", "-out", t.TempDir()}
	if rc := realMain(args, &stdout, &stderr); rc != 0 && rc != 1 {
		t.Fatalf("exit %d\n%s", rc, stderr.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(stdout.String(), "| check | "+d.name+" | "+d.unit+" |") {
			t.Errorf("no row for %s in:\n%s", d.name, stdout.String())
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := realMain([]string{"-workload", "nope"}, &stdout, &stderr); rc == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", rc, stdout.String())
	}
}
