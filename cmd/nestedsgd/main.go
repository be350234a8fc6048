// Command nestedsgd serves nested transactions over TCP with online SG
// certification: every committed response is backed by an acyclic SG(β)
// prefix of the server's event log. On SIGINT/SIGTERM it drains connections,
// recomputes the whole log offline, and cross-checks the online certifier's
// final snapshot against the batch graph before exiting.
//
// Usage:
//
//	nestedsgd -addr :7474 -backend moss -spec register -objects x,y,z
//	nestedsgd -addr :7474 -backend mvto          # multiversion TO + lock-free read-only snapshots
//	nestedsgd -addr :7474 -metrics :7475     # JSON at /metrics, expvar at /debug/vars, pprof at /debug/pprof/
//	nestedsgd -addr :7474 -wal /var/lib/nestedsgd/wal   # durable log; replayed and audited on boot
//
// Backends: moss, undolog, mvto. Specs: register, counter, account, set,
// appendlog, queue (mvto supports register only).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"nestedsg/internal/server"
	"nestedsg/internal/spec"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig, nil))
}

// expvarOnce guards the process-global expvar name: tests run the server
// more than once per process, and expvar.Publish panics on duplicates. The
// first server in the process wins the expvar slot; the per-server HTTP
// -metrics endpoint is unaffected.
var expvarOnce sync.Once

func publishExpvar(s *server.Server) {
	expvarOnce.Do(func() {
		expvar.Publish("nestedsgd", expvar.Func(func() any { return s.MetricsSnapshot() }))
	})
}

// run starts the server and blocks until a signal arrives (or sig closes).
// ready, when non-nil, receives the bound listener address once accepting.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal, ready chan<- string) int {
	fs := flag.NewFlagSet("nestedsgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7474", "TCP listen address")
		metricsAddr  = fs.String("metrics", "", "serve JSON metrics on this HTTP address ('' disables)")
		backendName  = fs.String("backend", "", "object backend: moss (default), undolog, mvto")
		specName     = fs.String("spec", "register", "object type for new objects: register, counter, account, set, appendlog, queue")
		objects      = fs.String("objects", "", "comma-separated object labels to pre-create")
		walDir       = fs.String("wal", "", "directory for the durable write-ahead log; on boot, replay and audit it before serving ('' = in-memory, no durability)")
		lockTimeout  = fs.Duration("lock-timeout", time.Second, "abort a transaction whose access waits this long")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "shutdown: force-close busy connections after this long")
		verbose      = fs.Bool("v", false, "log per-session aborts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	backend := *backendName
	if backend == "" {
		backend = "moss"
	}
	sp := spec.ByName(*specName)
	if sp == nil {
		fmt.Fprintf(stderr, "nestedsgd: unknown spec %q\n", *specName)
		return 2
	}
	opts := server.Options{Backend: backend, DefaultSpec: sp, LockTimeout: *lockTimeout}
	if err := server.ValidateBackendOptions(opts); err != nil {
		fmt.Fprintln(stderr, "nestedsgd:", err)
		return 2
	}
	if *objects != "" {
		for _, label := range strings.Split(*objects, ",") {
			if label = strings.TrimSpace(label); label != "" {
				opts.Objects = append(opts.Objects, label)
			}
		}
	}
	if *verbose {
		opts.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, "nestedsgd: "+format+"\n", a...) }
	}

	var s *server.Server
	if *walDir != "" {
		disk, derr := server.NewDirDisk(*walDir)
		if derr != nil {
			fmt.Fprintln(stderr, "nestedsgd: wal:", derr)
			return 2
		}
		opts.WAL = disk
		recovered, rep, rerr := server.Recover(opts)
		if rerr != nil {
			fmt.Fprintln(stderr, "nestedsgd: recover:", rerr)
			return 2
		}
		fmt.Fprintln(stdout, "nestedsgd:", rep.Summary())
		if serr := recovered.Start(*addr); serr != nil {
			fmt.Fprintln(stderr, "nestedsgd:", serr)
			recovered.Kill()
			return 2
		}
		s = recovered
	} else {
		listening, lerr := server.Listen(*addr, opts)
		if lerr != nil {
			fmt.Fprintln(stderr, "nestedsgd:", lerr)
			return 2
		}
		s = listening
	}
	publishExpvar(s)

	var msrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		// The profiles, on this mux: the package's init registers them on
		// http.DefaultServeMux, which the daemon never serves.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if merr := msrv.ListenAndServe(); merr != nil && merr != http.ErrServerClosed {
				fmt.Fprintln(stderr, "nestedsgd: metrics:", merr)
			}
		}()
	}

	fmt.Fprintf(stdout, "nestedsgd: listening on %s (backend=%s spec=%s)\n", s.Addr(), s.Backend(), *specName)
	if ready != nil {
		ready <- s.Addr().String()
	}

	<-sig
	fmt.Fprintln(stdout, "nestedsgd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "nestedsgd: drain:", err)
	}
	if msrv != nil {
		msrv.Close()
	}

	f := s.Final()
	fmt.Fprint(stdout, f.Summary)
	if werr := s.WALError(); werr != nil {
		fmt.Fprintln(stderr, "nestedsgd: wal:", werr)
		return 1
	}
	if !f.Batch.OK || !f.Match {
		return 1
	}
	return 0
}
