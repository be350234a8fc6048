// Command tracestats summarizes a trace (as written by nestedrun, JSON or
// binary): event-kind counts, tree shape, per-object operation mix,
// completion outcomes and a concurrency profile (how many transactions were
// live over time) — a quick look at what a run actually did before feeding
// it to sgcheck.
//
// Usage:
//
//	nestedrun -seed 7 -out trace.json
//	tracestats -in trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nestedsg/internal/event"
	"nestedsg/internal/stats"
	"nestedsg/internal/tname"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "trace file to summarize ('-' or empty for stdin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := io.Reader(os.Stdin)
	if *in != "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "tracestats:", err)
			return 2
		}
		defer f.Close() //sgvet:ignore[checkederr] read-only open; a close error cannot lose data
		r = f
	}
	tr, b, err := event.ReadTraceAuto(r)
	if err != nil {
		fmt.Fprintln(stderr, "tracestats:", err)
		return 2
	}
	summarize(stdout, tr, b)
	return 0
}

func summarize(w io.Writer, tr *tname.Tree, b event.Behavior) {
	fmt.Fprintf(w, "trace: %d events, %d transaction names, %d objects\n\n",
		len(b), tr.NumTx(), tr.NumObjects())

	// Event kinds.
	kinds := stats.NewTable("events by kind", "kind", "count")
	counts := map[event.Kind]int{}
	for _, e := range b {
		counts[e.Kind]++
	}
	for k := event.Create; k <= event.InformAbort; k++ {
		if counts[k] > 0 {
			kinds.AddRow(k.String(), counts[k])
		}
	}
	fmt.Fprintln(w, kinds.String())

	// Tree shape: depth histogram of names that actually appear.
	appeared := map[tname.TxID]bool{}
	for _, e := range b {
		appeared[e.Tx] = true
	}
	depthCount := map[int]int{}
	accesses := 0
	for tx := range appeared {
		depthCount[tr.Depth(tx)]++
		if tr.IsAccess(tx) {
			accesses++
		}
	}
	shape := stats.NewTable("tree shape (names appearing in the trace)", "depth", "names")
	var depths []int
	for d := range depthCount {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		shape.AddRow(d, depthCount[d])
	}
	fmt.Fprintln(w, shape.String())

	// Outcomes.
	commits, aborts := b.CommitSet(), b.AbortSet()
	live := 0
	for tx := range appeared {
		if tx != tname.Root && !commits[tx] && !aborts[tx] && b.IsLive(tx) {
			live++
		}
	}
	fmt.Fprintf(w, "outcomes: %d committed, %d aborted, %d still live; %d access names\n\n",
		len(commits), len(aborts), live, accesses)

	// Per-object operation mix (granted accesses only).
	mix := stats.NewTable("per-object operations (REQUEST_COMMITs)", "object", "spec", "ops", "distinct kinds")
	type objAgg struct {
		n     int
		kinds map[string]bool
	}
	agg := map[tname.ObjID]*objAgg{}
	for _, op := range b.Operations(tr) {
		a := agg[op.Obj]
		if a == nil {
			a = &objAgg{kinds: map[string]bool{}}
			agg[op.Obj] = a
		}
		a.n++
		a.kinds[op.OV.Op.Kind.String()] = true
	}
	var objs []tname.ObjID
	for x := range agg {
		objs = append(objs, x)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, x := range objs {
		mix.AddRow(tr.ObjectLabel(x), tr.Spec(x).Name(), agg[x].n, len(agg[x].kinds))
	}
	fmt.Fprintln(w, mix.String())

	// Concurrency profile: live (created, uncompleted) transactions over
	// the serial actions.
	liveNow, maxLive, area := 0, 0, 0
	serialEvents := 0
	for _, e := range b {
		if !e.Kind.IsSerial() {
			continue
		}
		switch e.Kind {
		case event.Create:
			if e.Tx != tname.Root {
				liveNow++
			}
		case event.Commit, event.Abort:
			// An abort of a never-created transaction does not reduce
			// liveness; guard by tracking created names.
			if createdBefore(b, e.Tx) {
				liveNow--
			}
		default:
			// Requests and reports do not change the live count.
		}
		if liveNow > maxLive {
			maxLive = liveNow
		}
		area += liveNow
		serialEvents++
	}
	mean := 0.0
	if serialEvents > 0 {
		mean = float64(area) / float64(serialEvents)
	}
	fmt.Fprintf(w, "concurrency: max %d live transactions, mean %.2f over %d serial events\n",
		maxLive, mean, serialEvents)
}

// createdBefore reports whether tx has a CREATE anywhere in the behavior
// (completions follow creations when present, so this suffices for the
// profile).
func createdBefore(b event.Behavior, tx tname.TxID) bool {
	for _, e := range b {
		if e.Kind == event.Create && e.Tx == tx {
			return true
		}
	}
	return false
}
