// Command nestedload is a closed-loop load generator for nestedsgd: N
// workers each drive their own connection, running top-level transactions
// (with optional subtransactions) against K shared objects with a
// configurable read/write mix and zipf skew, retrying server-side aborts
// with bounded exponential backoff. It prints a throughput/latency table
// and the server's final certification verdict.
//
// Usage:
//
//	nestedload -addr 127.0.0.1:7474 -workers 16 -sessions 25
//	nestedload -selfserve -workers 4 -dur 1s       # in-process server
//	nestedload -selfserve -backend mvto -readratio 0.95   # snapshot reads
//	nestedload -selfserve -workers 4 -bench        # go test -bench format
//	nestedload -sweep -dur 250ms                   # clients × read-ratio × zipf grid
//	nestedload -sweep -sweep-backends moss,undolog,mvto
//
// The sweep runs every combination of -sweep-backends, -sweep-clients,
// -sweep-readratios and -sweep-zipfs against a fresh in-process server and
// emits one `go test -bench` style line per cell with latency percentiles
// and throughput as custom units (p50-us, p99-us, tx/s), so cmd/benchdiff
// can track tail latency and throughput as first-class columns.
//
// Transactions whose drawn operations are all read-class run through
// client.RunReadTx: on the mvto backend they read a lock-free certified
// snapshot; every other backend degrades them to ordinary transactions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"nestedsg/internal/client"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opFor draws one operation for the given spec: read-class with probability
// readRatio, update-class otherwise, with small argument domains so
// conflicts actually occur. The third return reports whether the drawn
// operation is read-class, so the caller can route all-read transactions
// through the read-only BEGIN.
func opFor(specName string, rng *rand.Rand, readRatio float64) (spec.OpKind, spec.Value, bool) {
	read := rng.Float64() < readRatio
	switch specName {
	case "counter":
		if read {
			return spec.OpGet, spec.Nil, true
		}
		if rng.Intn(2) == 0 {
			return spec.OpIncrement, spec.Int(int64(1 + rng.Intn(4))), false
		}
		return spec.OpDecrement, spec.Int(int64(1 + rng.Intn(4))), false
	case "account":
		if read {
			return spec.OpBalance, spec.Nil, true
		}
		if rng.Intn(2) == 0 {
			return spec.OpDeposit, spec.Int(int64(1 + rng.Intn(10))), false
		}
		return spec.OpWithdraw, spec.Int(int64(1 + rng.Intn(10))), false
	case "set":
		if read {
			if rng.Intn(2) == 0 {
				return spec.OpMember, spec.Int(int64(rng.Intn(8))), true
			}
			return spec.OpSize, spec.Nil, true
		}
		if rng.Intn(2) == 0 {
			return spec.OpInsert, spec.Int(int64(rng.Intn(8))), false
		}
		return spec.OpRemove, spec.Int(int64(rng.Intn(8))), false
	case "appendlog":
		if read {
			return spec.OpLen, spec.Nil, true
		}
		return spec.OpAppend, spec.Int(int64(rng.Intn(100))), false
	case "queue":
		if read {
			return spec.OpDeq, spec.Nil, false // Deq mutates: not read-class
		}
		return spec.OpEnq, spec.Int(int64(rng.Intn(100))), false
	default: // register
		if read {
			return spec.OpRead, spec.Nil, true
		}
		return spec.OpWrite, spec.Int(int64(rng.Intn(100))), false
	}
}

// loadConfig is one load run's parameters. selfserve means execute starts
// (and drains) an in-process server running the named object backend.
type loadConfig struct {
	target    string
	selfserve bool
	backend   string
	workers   int
	sessions  int
	dur       time.Duration
	accesses  int
	childProb float64
	readRatio float64
	zipfS     float64
	objects   []string
	specName  string
	seed      int64
	retries   int
}

// loadResult is what one load run measured, plus the certification verdict
// the run ended with.
type loadResult struct {
	committed int64
	roDone    int64 // committed transactions that ran through RunReadTx
	failed    int64
	srvAborts int64 // selfserve: server-initiated top-level aborts (timeouts, deadlocks, restarts, drain)
	elapsed   time.Duration
	lat       *server.Histogram
	ok        bool
	summary   string // final certificate (selfserve) or remote verdict line
}

// snapInt reads an int64-valued counter out of a metrics snapshot.
func snapInt(m map[string]any, key string) int64 {
	v, _ := m[key].(int64)
	return v
}

// execute runs one closed loop load against the configured server and
// returns the measurements; worker transport errors go to stderr. The
// second return is nonzero on setup failure.
func execute(cfg loadConfig, stderr io.Writer) (*loadResult, int) {
	var srv *server.Server
	target := cfg.target
	if cfg.selfserve {
		var err error
		srv, err = server.Listen("127.0.0.1:0", server.Options{
			Backend:     cfg.backend,
			DefaultSpec: spec.ByName(cfg.specName),
			Objects:     cfg.objects,
		})
		if err != nil {
			fmt.Fprintln(stderr, "nestedload:", err)
			return nil, 2
		}
		target = srv.Addr().String()
	}

	var (
		committed atomic.Int64
		roDone    atomic.Int64
		failed    atomic.Int64
		lat       server.Histogram
		wg        sync.WaitGroup
	)
	start := time.Now()
	deadline := time.Time{}
	if cfg.dur > 0 {
		deadline = start.Add(cfg.dur)
	}
	errCh := make(chan error, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			var zipf *rand.Zipf
			if cfg.zipfS > 1 {
				zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(cfg.objects)-1))
			}
			pick := func() string {
				if zipf != nil {
					return cfg.objects[zipf.Uint64()]
				}
				return cfg.objects[rng.Intn(len(cfg.objects))]
			}
			c, err := client.Dial(target)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			// Each transaction's accesses are drawn up front so retries
			// replay the same work, and so an all-read plan can run through
			// RunReadTx: on the mvto backend that is a lock-free certified
			// snapshot, on every other backend the server degrades it to an
			// ordinary transaction.
			type planned struct {
				obj   string
				op    spec.OpKind
				arg   spec.Value
				child bool
			}
			plan := make([]planned, cfg.accesses)
			body := func(tx *client.Tx) error {
				for _, p := range plan {
					if p.child {
						if _, err := tx.Child(); err != nil {
							return err
						}
						if _, err := tx.Access(p.obj, p.op, p.arg); err != nil {
							return err
						}
						if _, err := tx.Commit(); err != nil {
							return err
						}
					} else if _, err := tx.Access(p.obj, p.op, p.arg); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; deadline.IsZero() && i < cfg.sessions || !deadline.IsZero() && time.Now().Before(deadline); i++ {
				allRead := true
				for a := range plan {
					op, arg, read := opFor(cfg.specName, rng, cfg.readRatio)
					plan[a] = planned{obj: pick(), op: op, arg: arg, child: rng.Float64() < cfg.childProb}
					allRead = allRead && read
				}
				runTx := c.RunTx
				if allRead {
					runTx = c.RunReadTx
				}
				t0 := time.Now()
				if err := runTx(cfg.retries, body); err != nil {
					failed.Add(1)
					if !errors.Is(err, client.ErrTxAborted) {
						errCh <- err
						return
					}
					continue
				}
				lat.Observe(time.Since(t0))
				committed.Add(1)
				if allRead {
					roDone.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		fmt.Fprintln(stderr, "nestedload: worker:", err)
	}

	res := &loadResult{
		committed: committed.Load(),
		roDone:    roDone.Load(),
		failed:    failed.Load(),
		elapsed:   elapsed,
		lat:       &lat,
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "nestedload: drain:", err)
		}
		snap := srv.MetricsSnapshot()
		res.srvAborts = snapInt(snap, "lock_timeouts") + snapInt(snap, "deadlock_aborts") +
			snapInt(snap, "restart_aborts") + snapInt(snap, "drain_aborts")
		f := srv.Final()
		res.summary = f.Summary
		res.ok = f.Batch.OK && f.Match
	} else {
		// Remote server: read its live verdict over the wire.
		v, err := remoteVerdict(target)
		if err != nil {
			fmt.Fprintln(stderr, "nestedload: verdict:", err)
		} else {
			var rate float64
			if v.Commits+v.Aborts > 0 {
				rate = float64(v.Aborts) / float64(v.Commits+v.Aborts)
			}
			res.summary = fmt.Sprintf(
				"server verdict: events=%d certified=%d acyclic=%v sg=%d/%d/%d (parents/nodes/edges) commits=%d aborts=%d abort-rate=%.3f\n",
				v.Events, v.Certified, v.Acyclic, v.Parents, v.Nodes, v.Edges, v.Commits, v.Aborts, rate)
			res.ok = v.Acyclic
		}
	}
	return res, 0
}

// remoteVerdict reads a remote server's live certification verdict over a
// connection of its own.
func remoteVerdict(target string) (wire.Verdict, error) {
	c, err := client.Dial(target)
	if err != nil {
		return wire.Verdict{}, err
	}
	defer c.Close()
	return c.Verdict()
}

// tput is committed transactions per wall second.
func (r *loadResult) tput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.committed) / r.elapsed.Seconds()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nestedload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "server address (empty with -selfserve)")
		selfserve   = fs.Bool("selfserve", false, "start an in-process server on a loopback port")
		workers     = fs.Int("workers", 4, "concurrent client connections")
		sessions    = fs.Int("sessions", 25, "transactions per worker (ignored with -dur)")
		dur         = fs.Duration("dur", 0, "run for this long instead of a fixed transaction count")
		accesses    = fs.Int("accesses", 4, "accesses per transaction")
		childProb   = fs.Float64("childprob", 0.25, "probability an access runs inside a subtransaction")
		readRatio   = fs.Float64("readratio", 0.5, "fraction of read-class operations")
		zipfS       = fs.Float64("zipf", 0, "zipf skew parameter s (>1 enables skewed object choice)")
		numObj      = fs.Int("objects", 4, "number of shared objects (x0..x{n-1})")
		specName    = fs.String("spec", "register", "object type")
		backendName = fs.String("backend", "", "selfserve: object backend: moss (default), undolog, mvto")
		seed        = fs.Int64("seed", 1, "per-worker RNG seed base")
		retries     = fs.Int("retries", 8, "max attempts per transaction (bounded exponential backoff)")
		bench       = fs.Bool("bench", false, "also print a go test -bench style summary line")

		sweep         = fs.Bool("sweep", false, "run a backends × clients × read-ratio × zipf grid on in-process servers, one bench line per cell")
		sweepBackends = fs.String("sweep-backends", "moss", "sweep: comma-separated object backends")
		sweepCli      = fs.String("sweep-clients", "1,4,8,16", "sweep: comma-separated worker counts")
		sweepRatios   = fs.String("sweep-readratios", "0.2,0.8", "sweep: comma-separated read ratios")
		sweepZipfs    = fs.String("sweep-zipfs", "0,1.5", "sweep: comma-separated zipf skews (0 = uniform)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *accesses < 1 || *numObj < 1 {
		fmt.Fprintln(stderr, "nestedload: -workers, -accesses and -objects must be positive")
		return 2
	}
	sp := spec.ByName(*specName)
	if sp == nil {
		fmt.Fprintf(stderr, "nestedload: unknown spec %q\n", *specName)
		return 2
	}
	backend := *backendName
	if backend == "" {
		backend = "moss"
	}
	if err := server.ValidateBackendOptions(server.Options{Backend: backend, DefaultSpec: sp}); err != nil {
		fmt.Fprintln(stderr, "nestedload:", err)
		return 2
	}

	objects := make([]string, *numObj)
	for i := range objects {
		objects[i] = fmt.Sprintf("x%d", i)
	}

	base := loadConfig{
		backend:   backend,
		workers:   *workers,
		sessions:  *sessions,
		dur:       *dur,
		accesses:  *accesses,
		childProb: *childProb,
		readRatio: *readRatio,
		zipfS:     *zipfS,
		objects:   objects,
		specName:  *specName,
		seed:      *seed,
		retries:   *retries,
	}

	if *sweep {
		return runSweep(base, *sweepBackends, *sweepCli, *sweepRatios, *sweepZipfs, stdout, stderr)
	}

	if *selfserve {
		base.selfserve = true
	} else if *addr == "" {
		fmt.Fprintln(stderr, "nestedload: -addr is required without -selfserve")
		return 2
	} else {
		base.target = *addr
	}

	res, rc := execute(base, stderr)
	if rc != 0 {
		return rc
	}
	tput := res.tput()
	// backend= and server-aborts= are selfserve facts; a remote server's
	// backend is its own business and its abort counters arrive in the
	// verdict line instead.
	if base.selfserve {
		fmt.Fprintf(stdout, "backend=%s ", base.backend)
	}
	fmt.Fprintf(stdout, "workers=%d committed=%d ro=%d failed=%d", base.workers, res.committed, res.roDone, res.failed)
	if base.selfserve {
		fmt.Fprintf(stdout, " server-aborts=%d", res.srvAborts)
	}
	fmt.Fprintf(stdout, " elapsed=%s throughput=%.1f tx/s\n", res.elapsed.Round(time.Millisecond), tput)
	fmt.Fprintf(stdout, "latency: mean=%s p50=%s p99=%s\n",
		res.lat.Mean().Round(time.Microsecond), res.lat.Quantile(0.50), res.lat.Quantile(0.99))
	fmt.Fprint(stdout, res.summary)

	if *bench && res.committed > 0 {
		// One line per run in `go test -bench` text format so cmd/benchdiff
		// can diff load runs; reported only, never gated.
		fmt.Fprintf(stdout, "BenchmarkNestedload/c%d %d %d ns/op\n",
			base.workers, res.committed, res.elapsed.Nanoseconds()/res.committed)
	}
	if !res.ok || (res.committed == 0 && res.failed > 0) {
		return 1
	}
	return 0
}

// runSweep executes the backends × clients × read-ratio × zipf grid, each
// cell a fresh in-process server, and emits one benchmark line per cell
// whose custom units (p50-us, p99-us, tx/s) cmd/benchdiff parses into BENCH
// columns. Every cell must end with a clean certificate; any verdict
// failure fails the sweep.
func runSweep(base loadConfig, backendList, cliList, ratioList, zipfList string, stdout, stderr io.Writer) int {
	var bks []string
	for _, b := range strings.Split(backendList, ",") {
		if b = strings.TrimSpace(b); b == "" {
			continue
		}
		if err := server.ValidateBackendOptions(server.Options{Backend: b, DefaultSpec: spec.ByName(base.specName)}); err != nil {
			fmt.Fprintln(stderr, "nestedload: -sweep-backends:", err)
			return 2
		}
		bks = append(bks, b)
	}
	if len(bks) == 0 {
		fmt.Fprintln(stderr, "nestedload: -sweep-backends is empty")
		return 2
	}
	clients, err := parseInts(cliList)
	if err != nil {
		fmt.Fprintln(stderr, "nestedload: -sweep-clients:", err)
		return 2
	}
	ratios, err := parseFloats(ratioList)
	if err != nil {
		fmt.Fprintln(stderr, "nestedload: -sweep-readratios:", err)
		return 2
	}
	zipfs, err := parseFloats(zipfList)
	if err != nil {
		fmt.Fprintln(stderr, "nestedload: -sweep-zipfs:", err)
		return 2
	}

	rc := 0
	for _, bk := range bks {
		for _, c := range clients {
			for _, r := range ratios {
				for _, z := range zipfs {
					cfg := base
					cfg.selfserve = true
					cfg.backend = bk
					cfg.workers = c
					cfg.readRatio = r
					cfg.zipfS = z
					res, erc := execute(cfg, stderr)
					if erc != 0 {
						return erc
					}
					name := fmt.Sprintf("BenchmarkServerSweep/b%s/c%d/r%.2f/z%.1f", bk, c, r, z)
					fmt.Fprintf(stderr, "# %s committed=%d ro=%d failed=%d aborts=%d elapsed=%s ok=%v\n",
						strings.TrimPrefix(name, "Benchmark"), res.committed, res.roDone, res.failed,
						res.srvAborts, res.elapsed.Round(time.Millisecond), res.ok)
					if res.committed > 0 {
						fmt.Fprintf(stdout, "%s %d %d ns/op %d p50-us %d p99-us %.1f tx/s\n",
							name, res.committed, res.elapsed.Nanoseconds()/res.committed,
							res.lat.Quantile(0.50).Microseconds(), res.lat.Quantile(0.99).Microseconds(),
							res.tput())
					}
					if !res.ok || (res.committed == 0 && res.failed > 0) {
						rc = 1
					}
				}
			}
		}
	}
	return rc
}
