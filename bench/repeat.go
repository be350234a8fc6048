package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatMain is -repeat N: every workload N times, each time with another
// seed, every run a fresh process exactly as the driver starts it, the
// workloads interleaved round-robin (A B C … A B C …) so that slow drift of
// the machine hits all of them alike. For each workload × end-to-end metric
// it prints the median and the spread — the distance between the first and
// the third quartile as a share of the median — beside the metric's bound,
// and exits non-zero if a spread exceeds half its bound.
func repeatMain(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var ws []*workload
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
			return 2
		}
		ws = append(ws, w)
	} else {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < cfg.repeat; i++ {
		for _, w := range ws {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-out", cfg.outDir}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res jsonResult
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s run %d: no result (%v)\n", w.name, i, err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(stderr, "# run %d/%d %s: %d attempted, %d failed\n", i+1, cfg.repeat, w.name, res.Attempted, res.Failed)
		}
	}
	fmt.Fprintf(stdout, "| workload | metric | unit | median | min | max | spread (IQR/median) | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	rc := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			sp := spread(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			verdict := "ok"
			if sp > d.bound/2 {
				verdict = "NOISY"
				if d.name != "setup_s" { // the driver does not hold setup_s to its spread
					rc = 1
				}
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %.4g | %.2f %% | %.0f %% | %s |\n",
				w.name, d.name, d.unit, median(vs), lo, hi, 100*sp, 100*d.bound, verdict)
		}
	}
	return rc
}
