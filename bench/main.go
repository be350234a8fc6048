// Command bench is the repository's benchmark: six fixed-work workloads
// against the real in-process server and the offline checker, timed on a
// calibrated clock, with a second, traced pass for per-layer numbers. See
// README.md in this directory; BENCHMARK.json at the repository root is
// its contract.
//
//	bash bench/run.sh --workload young --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload aged  --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -repeat 10        # repeatability table, every workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong output is not counted:
// it fails the run, which then prints no result and exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// procs is the GOMAXPROCS of the benchmark process: one. The two client
// connections, their server sessions, the merger and the certifier are
// concurrent goroutines on one OS thread. See README.md, "One processor".
const procs = 1

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	repeat   int
	contract bool
	segment  int
	outDir   string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: young, hot, durable, readmostly, aged, check")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measuring time; selects seconds/2 segments of fixed work")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics and the layer ledger")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for tests; the numbers mean nothing")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run every workload N times with N seeds and print the spread of each end-to-end metric beside its bound")
	fs.IntVar(&cfg.segment, "segment", -1, "internal: be the process that measures this one segment")
	fs.BoolVar(&cfg.contract, "contract", false, "print BENCHMARK.json as the program's tables define it, and exit")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for span files and, under tmp/, WAL scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.contract {
		stdout.Write(contractJSON())
		return 0
	}
	if cfg.repeat > 0 {
		return repeatMain(cfg, stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have", cfg.workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	sized := fullSize.apply(*w)
	if cfg.smoke {
		sized = smokeSize.apply(*w)
	}
	var res *runResult
	var err error
	switch {
	case cfg.segment >= 0:
		err = segmentMain(cfg, &sized, stdout)
	case cfg.trace == 1:
		res, err = tracedMain(cfg, &sized, stdout)
	default:
		res, err = untracedMain(cfg, &sized, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: FAILED:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	return printResult(stdout, res, cfg.trace == 1)
}

// newRunner sets up the calibrator and the scratch directory; the caller
// closes the calibrator.
func newRunner(cfg config) (*runner, error) {
	tmpDir := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	r := &runner{cal: cal, epoch: time.Now(), tmpDir: tmpDir, outDir: cfg.outDir, size: fullSize}
	if cfg.smoke {
		r.size = smokeSize
	}
	// Two throw-away kernels: the first pays for the loopback pair's own
	// warm-up.
	for i := 0; i < 2; i++ {
		if _, err := cal.kernel(); err != nil {
			cal.close()
			return nil, err
		}
	}
	return r, nil
}

func printSegment(stdout io.Writer, k int, seg *segment) {
	v := segValues(seg)
	fmt.Fprintf(stdout, "# segment %d: tx_per_s=%.1f p50=%.1f p95=%.1f cpu=%.1f heap=%.3f setup=%.3f raw_tx_per_s=%.1f cal_factor=%.3f\n",
		k, v["tx_per_s"], v["tx_p50_us"], v["tx_p95_us"], v["cpu_us_per_tx"], v["heap_mb"], v["setup_s"],
		float64(seg.committed)/seg.rawElapsed, seg.meanFactor())
}

func printHeader(stdout io.Writer, cfg config, w *workload, r *runner, segments int, wall time.Duration) {
	fmt.Fprintf(stdout, "# %s seed=%d size=%s segments=%d go=%s nproc=%d gomaxprocs=%d wall=%.1fs\n",
		w.name, cfg.seed, r.size.name, segments, runtime.Version(), runtime.NumCPU(), procs, wall.Seconds())
}

// segmentMain is the segment process: one warm-up life and one untraced
// segment, reported to the parent as the last line of standard output.
func segmentMain(cfg config, w *workload, stdout io.Writer) error {
	r, err := newRunner(cfg)
	if err != nil {
		return err
	}
	defer r.cal.close()
	segs, reports, err := r.untraced(w, cfg.seed, []int{cfg.segment})
	if err != nil {
		return err
	}
	printSegment(stdout, cfg.segment, segs[0])
	line, err := json.Marshal(reports[0])
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// untracedMain is the --trace 0 run: every segment in a fresh process, one
// after the other. What a memory-bound workload costs depends on where the
// kernel happened to place the process's pages — aged moved by ± 5 % from
// process to process with one seed, all five segments of a process
// together — and only fresh processes make the segments independent
// draws, so that their median means something.
func untracedMain(cfg config, w *workload, stdout, stderr io.Writer) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	segments := segmentsFor(cfg.seconds)
	reports := make([]segmentReport, segments)
	start := time.Now()
	for k := range reports {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-segment", strconv.Itoa(k), "-out", cfg.outDir}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &reports[k]); err != nil {
			return nil, fmt.Errorf("segment %d: no report: %w", k, err)
		}
	}
	res := &runResult{workload: w.name, metrics: map[string]float64{}}
	res.addReports(reports)
	fmt.Fprintf(stdout, "# %s seed=%d segments=%d (one process each) go=%s nproc=%d gomaxprocs=%d wall=%.1fs\n",
		w.name, cfg.seed, segments, runtime.Version(), runtime.NumCPU(), procs, time.Since(start).Seconds())
	return res, nil
}

// tracedMain is the --trace 1 run.
func tracedMain(cfg config, w *workload, stdout io.Writer) (*runResult, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.cal.close()
	start := time.Now()
	res, err := r.traced(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	for i, seg := range res.segs {
		printSegment(stdout, i, seg)
	}
	printHeader(stdout, cfg, w, r, len(res.segs), wall)
	res.metrics["bench.cal_slowdown"] = r.cal.slowdown()
	res.metrics["bench.fsync_probe_us"] = median(r.cal.probeUs)
	res.metrics["bench.cal_share"] = r.cal.total.Seconds() / wall.Seconds()
	printLedger(stdout, res)
	if r.spanFile != "" {
		fmt.Fprintf(stdout, "# spans: %s\n", r.spanFile)
	}
	return res, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints the human table and then, as the last line, the JSON
// object the driver reads.
func printResult(stdout io.Writer, res *runResult, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: true, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v := res.metrics[d.name]
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", res.workload+"/"+d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
