package main

import (
	"fmt"
	"sort"
	"time"
)

// workload is one row of the table in README.md. A life is one fresh
// server from boot to final audit; a segment is a fixed number of lives,
// each running a fixed, pre-generated list of transactions.
type workload struct {
	name    string
	why     string
	backend string
	wal     bool
	clients int
	mix     mix
	// txPerLife transactions (summed over clients) run against each fresh
	// server; lives servers make one segment.
	txPerLife int
	lives     int
	offline   bool // the check workload: no server at all
}

var workloads = []workload{
	{name: "young", backend: "moss", clients: 2, mix: mix{256, 0, 0.5}, txPerLife: 250, lives: 24,
		why: "short uncontended lives keep SG small: wire, session, backend, sharded log and merger do the work"},
	{name: "hot", backend: "moss", clients: 2, mix: mix{4, 1.5, 0.2}, txPerLife: 250, lives: 16,
		why: "two writers on four skewed objects: lock-wait polling, deadlock victims and client back-off dominate"},
	{name: "durable", backend: "moss", wal: true, clients: 2, mix: mix{256, 0, 0.5}, txPerLife: 250, lives: 16,
		why: "young plus a WAL with real fsync, crash and Recover: group commit and the WAL writer dominate"},
	{name: "readmostly", backend: "mvto", clients: 2, mix: mix{8, 1.5, 0.95}, txPerLife: 2000, lives: 6,
		why: "mostly all-read transactions on mvto's lock-free snapshot path: a writer-path gain that costs readers shows"},
	{name: "aged", backend: "moss", clients: 1, mix: mix{256, 0, 0.5}, txPerLife: 1600, lives: 1,
		why: "one long life grows SG to about a million edges: certifier and Pearce-Kelly insertion set the pace"},
	{name: "check", offline: true,
		why: "offline certification of NSGB traces by the batch and the streaming engine: the paper's artefact, no server"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// size scales the fixed work. Only full is ever measured; smoke exists so
// that the tests can run every code path in seconds.
type size struct {
	name        string
	txScale     float64 // multiplies txPerLife
	livesScale  float64 // multiplies lives
	corpusScale float64
	checkReps   int
	pings       int
	// replay is how long a replay metric keeps repeating a short input.
	replay time.Duration
}

var (
	fullSize  = size{"full", 1, 1, 1, 6, 2000, 60 * time.Millisecond}
	smokeSize = size{"smoke", 0.16, 1.0 / 16, 0.1, 2, 100, 2 * time.Millisecond}
)

func (s size) apply(w workload) workload {
	if w.offline {
		return w
	}
	w.txPerLife = int(float64(w.txPerLife) * s.txScale)
	if min := 4 * w.clients; w.txPerLife < min {
		w.txPerLife = min
	}
	w.txPerLife -= w.txPerLife % w.clients
	w.lives = int(float64(w.lives) * s.livesScale)
	if w.lives < 1 {
		w.lives = 1
	}
	return w
}

// secondsPerSegment is how much measuring one segment stands for: a run
// asked for n seconds runs n / secondsPerSegment segments of fixed work.
const secondsPerSegment = 2

// firstSegments returns the segment indices 0 … n-1.
func firstSegments(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = i
	}
	return ks
}

func segmentsFor(seconds int) int {
	n := seconds / secondsPerSegment
	if n < 1 {
		n = 1
	}
	return n
}

// tracedUntraced is how many untraced segments a traced run measures
// beside its one traced segment, to report the tracing overhead and the
// spread between segments.
const tracedUntraced = 3

type runner struct {
	cal    *calibrator
	epoch  time.Time
	tmpDir string // scratch for WAL directories, inside the checkout
	outDir string // where span files go
	size   size
	layer  layerAcc

	spanFile string // where the traced pass wrote its spans
}

// runSegment runs one segment of w. traced selects span recording.
func (r *runner) runSegment(w *workload, seed int64, traced bool) (*segment, error) {
	seg := &segment{}
	start := time.Now()
	if w.offline {
		if err := r.checkSegment(seg, seed); err != nil {
			return nil, err
		}
	} else {
		if traced {
			for k := 0; k < w.clients; k++ {
				seg.recs = append(seg.recs, &recorder{nextTx: int32(k), stride: int32(w.clients)})
			}
		}
		for l := 0; l < w.lives; l++ {
			res, err := r.life(w, seg, deriveSeed(seed, l), l == w.lives-1)
			if err != nil {
				return nil, fmt.Errorf("%s life %d: %w", w.name, l, err)
			}
			r.layer.addLife(res)
		}
	}
	wall := time.Since(start)
	seg.setupS = (wall.Seconds() - seg.rawElapsed - seg.calWall.Seconds()) * seg.meanFactor()
	sort.Float64s(seg.lat)
	return seg, nil
}

// endToEnd names the six metrics every workload reports, in the order of
// BENCHMARK.json. One bound per metric covers all six workloads, so the
// noisiest workload sets it: each is about three times the widest spread any
// workload showed in the -repeat tables made on the final calibration
// (README.md, "Bounds").
var endToEnd = []metricDef{
	{"tx_per_s", "1/s", "higher", 0.15},
	{"tx_p50_us", "us", "lower", 0.20},
	{"tx_p95_us", "us", "lower", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.20},
	{"heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

type metricDef struct {
	name, unit, better string
	bound              float64 // 0 for per-layer metrics
}

// segValues are one segment's end-to-end values, keyed like endToEnd.
func segValues(s *segment) map[string]float64 {
	n := float64(s.committed)
	if n == 0 {
		n = 1
	}
	return map[string]float64{
		"tx_per_s":      float64(s.committed) / s.calElapsed,
		"tx_p50_us":     percentile(s.lat, 0.50),
		"tx_p95_us":     percentile(s.lat, 0.95),
		"cpu_us_per_tx": s.calCPU / n,
		"heap_mb":       median(s.heapsMB),
		"setup_s":       s.setupS,
	}
}

// medianOver is the value a run reports for a metric: the median of the
// segments' values.
func medianOver(segs []*segment, name string) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = segValues(s)[name]
	}
	return median(vs)
}

// segmentReport is what one untraced segment measured, in the form a
// segment process hands to its parent.
type segmentReport struct {
	Segment   int                `json:"segment"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Committed int                `json:"committed"`
	Values    map[string]float64 `json:"values"`
}

// runResult is one invocation's outcome for one workload.
type runResult struct {
	workload          string
	attempted, failed int
	committed         int
	segs              []*segment // untraced segments measured in this process
	traced            *segment   // nil on an untraced run
	spans             *spanSummary
	metrics           map[string]float64
}

// addReports folds untraced segments into the result: every end-to-end
// metric is the median of the segments' values.
func (res *runResult) addReports(reports []segmentReport) {
	for _, rep := range reports {
		res.attempted += rep.Attempted
		res.failed += rep.Failed
		res.committed += rep.Committed
	}
	for _, m := range endToEnd {
		vs := make([]float64, len(reports))
		for i, rep := range reports {
			vs[i] = rep.Values[m.name]
		}
		res.metrics[m.name] = median(vs)
	}
}

// untraced measures the untraced segments ks of w in this process, after
// one unmeasured warm-up life, so that the first segment does not pay for
// page faults and lazy initialisation the others do not see.
func (r *runner) untraced(w *workload, seed int64, ks []int) ([]*segment, []segmentReport, error) {
	if !w.offline {
		warm := *w
		warm.lives = 1
		if warm.txPerLife > 250 {
			warm.txPerLife = 250 - 250%warm.clients
		}
		if _, err := r.runSegment(&warm, deriveSeed(seed, 999), false); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		r.layer = layerAcc{}
	}
	var segs []*segment
	var reports []segmentReport
	for _, k := range ks {
		seg, err := r.runSegment(w, deriveSeed(seed, k), false)
		if err != nil {
			return nil, nil, err
		}
		// The gated tail must have at least ten samples beyond it.
		if r.size.name == fullSize.name && beyond(len(seg.lat), 0.95) < 10 {
			return nil, nil, fmt.Errorf("%s: %d latency samples in a segment are too few for a 95th percentile", w.name, len(seg.lat))
		}
		seg.logs = nil // replay inputs are only needed from the traced segment
		segs = append(segs, seg)
		reports = append(reports, segmentReport{Segment: k, Attempted: seg.attempted, Failed: seg.failed,
			Committed: seg.committed, Values: segValues(seg)})
	}
	return segs, reports, nil
}

// traced is the --trace 1 run: tracedUntraced untraced segments, then
// segment 0's work again with spans on, then the per-layer metrics.
func (r *runner) traced(w *workload, seed int64) (*runResult, error) {
	res := &runResult{workload: w.name, metrics: map[string]float64{}}
	segs, reports, err := r.untraced(w, seed, firstSegments(tracedUntraced))
	if err != nil {
		return nil, err
	}
	res.segs = segs
	res.addReports(reports)
	seg, err := r.runSegment(w, deriveSeed(seed, 0), true)
	if err != nil {
		return nil, err
	}
	res.traced = seg
	res.attempted += seg.attempted
	res.failed += seg.failed
	res.committed += seg.committed
	if err := r.layerMetrics(w, res); err != nil {
		return nil, err
	}
	return res, nil
}
