// Command sgcheck reads a trace (as written by nestedrun, JSON or binary)
// and runs the paper's serialization-graph check on it: well-formedness,
// appropriate return values, SG(β) acyclicity. It prints the verdict, and
// optionally the certificate, the graph in DOT form, or the quadratic
// suitability audit.
//
// Usage:
//
//	nestedrun -seed 7 -out trace.json
//	sgcheck -in trace.json -cert -dot sg.dot
//	sgcheck -in trace.json -stream          # report the shortest bad prefix
//	sgcheck -in trace.bin                   # binary traces auto-detected
//	nestedrun -out - | sgcheck              # '-in -' (or no -in) reads stdin
//	nestedrun -format binary -out - | sgcheck -stream
//
// Both codecs work on stdin: the format is sniffed from the first bytes
// (binary traces start with the NSGB magic). When the input is a binary
// trace, -stream replays it through the incremental checker straight off
// the decoder, one event at a time. For a file, the behavior is never
// materialized in memory; for stdin — which cannot be re-read — the events
// are accumulated during the streaming pass and handed to the batch check.
//
// Exit status is 0 when the trace is certified serially correct for T0, 1
// on a check failure and 2 on usage or I/O errors.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/minimize"
	"nestedsg/internal/oracle"
	"nestedsg/internal/profiling"
	"nestedsg/internal/simple"
	"nestedsg/internal/tname"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in           = fs.String("in", "", "trace file to check ('-' or empty for stdin)")
		cert         = fs.Bool("cert", false, "print the certificate (sibling order and views) on success")
		dotOut       = fs.String("dot", "", "write SG(β) in Graphviz DOT form to this file")
		deep         = fs.Bool("deep", false, "run the quadratic suitability audit of §2.3.2")
		useOracle    = fs.Bool("oracle", false, "on SG failure, run the exhaustive Theorem-2 order search (exponential; small traces only)")
		oracleBudget = fs.Int("oraclebudget", 200000, "candidate budget for -oracle")
		minimizeOut  = fs.String("minimize", "", "on failure, shrink the trace to a 1-minimal failing core and write it here")
		audit        = fs.Bool("currentsafe", false, "also audit the Lemma 6 current/safe conditions (read/write objects only)")
		stream       = fs.Bool("stream", false, "replay the trace through the incremental checker first and report the shortest prefix with a cyclic SG")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		verbose      = fs.Bool("v", false, "print the trace as it is read")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "sgcheck:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "sgcheck:", err)
		}
	}()

	// Streaming check for binary input: drive the incremental checker
	// straight off the decoder. For a file the behavior is never built (the
	// batch check below re-reads the file); stdin cannot be re-read, so
	// there the streaming pass accumulates the events it decodes.
	var (
		streamed bool
		tr       *tname.Tree
		b        event.Behavior
	)
	fromStdin := *in == "" || *in == "-"
	stdinBuf := bufio.NewReader(stdin)
	if *stream {
		if !fromStdin && isBinaryFile(*in) {
			code, ok := streamBinaryFile(*in, stdout, stderr)
			if !ok {
				return code
			}
			streamed = true
		} else if fromStdin && isBinaryStream(stdinBuf) {
			d, err := event.NewBinaryDecoder(stdinBuf)
			if err != nil {
				fmt.Fprintln(stderr, "sgcheck:", err)
				return 2
			}
			kept, code, ok := streamDecode(d, true, stdout, stderr)
			if !ok {
				return code
			}
			streamed = true
			tr, b = d.Tree(), kept
		}
	}

	if tr == nil {
		r := io.Reader(stdinBuf)
		if !fromStdin {
			f, err := os.Open(*in)
			if err != nil {
				fmt.Fprintln(stderr, "sgcheck:", err)
				return 2
			}
			defer f.Close() //sgvet:ignore[checkederr] read-only open; a close error cannot lose data
			r = f
		}
		var err error
		tr, b, err = event.ReadTraceAuto(r)
		if err != nil {
			fmt.Fprintln(stderr, "sgcheck:", err)
			return 2
		}
	}
	if *verbose {
		fmt.Fprint(stdout, b.Format(tr))
	}

	fmt.Fprintf(stdout, "trace: %d events, %d transactions, %d objects\n", len(b), tr.NumTx(), tr.NumObjects())
	if *stream && !streamed {
		if at, cyc := core.StreamPrefix(tr, b); at >= 0 {
			fmt.Fprintf(stdout, "stream: rejected at event %d/%d — %s\n", at, len(b), cyc.Format(tr))
			return 1
		}
		fmt.Fprintf(stdout, "stream: all %d prefixes have acyclic SGs\n", len(b))
	}

	res := core.Check(tr, b)
	fmt.Fprintln(stdout, "verdict:", res.Summary(tr))

	if res.SG != nil && *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(res.SG.DOT()), 0o644); err != nil {
			fmt.Fprintln(stderr, "sgcheck:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote SG(β) to %s\n", *dotOut)
	}
	if !res.OK {
		if *minimizeOut != "" {
			small, mst := minimize.Minimize(tr, b)
			fmt.Fprintf(stdout, "minimize: %d -> %d events (%s, %d subtrees removed)\n",
				mst.EventsBefore, mst.EventsAfter, mst.Class, mst.Removed)
			f, err := os.Create(*minimizeOut)
			if err != nil {
				fmt.Fprintln(stderr, "sgcheck:", err)
				return 2
			}
			werr := event.WriteTrace(f, tr, small)
			// A buffered flush can fail at close; losing that error would
			// break the exit-status contract.
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(stderr, "sgcheck:", werr)
				return 2
			}
			fmt.Fprintf(stdout, "wrote minimized trace to %s\n", *minimizeOut)
		}
		if *useOracle && res.WFErr == nil {
			or := oracle.Search(tr, b, *oracleBudget)
			fmt.Fprintf(stdout, "oracle: %s after %d candidate orders\n", or.Outcome, or.Tried)
			if or.Outcome == oracle.Found {
				fmt.Fprintln(stdout, "oracle: a suitable sibling order exists — the SG rejection was conservative; the behavior is serially correct for T0 by Theorem 2")
				return 0
			}
		}
		return 1
	}
	if *cert {
		fmt.Fprint(stdout, core.FormatCertificate(tr, res.Certificate))
	}
	if *deep {
		if err := core.AuditSuitability(tr, b, res.Certificate.Order); err != nil {
			fmt.Fprintln(stdout, "suitability audit: FAILED:", err)
			return 1
		}
		fmt.Fprintln(stdout, "suitability audit: ok (R is suitable for β and T0)")
	}
	if *audit {
		allRegisters := true
		for x := tname.ObjID(0); int(x) < tr.NumObjects(); x++ {
			if tr.Spec(x).Name() != "register" {
				allRegisters = false
			}
		}
		if !allRegisters {
			fmt.Fprintln(stdout, "current/safe audit: skipped (non read/write objects present)")
		} else {
			reads, badWrites := simple.AuditCurrentSafe(tr, b)
			curOK, safeOK := 0, 0
			for _, rr := range reads {
				if rr.Current {
					curOK++
				}
				if rr.Safe {
					safeOK++
				}
			}
			fmt.Fprintf(stdout, "current/safe audit: %d reads, %d current, %d safe, %d bad writes\n",
				len(reads), curOK, safeOK, len(badWrites))
		}
	}
	return 0
}

// isBinaryFile reports whether the file starts with the binary trace magic.
func isBinaryFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close() //sgvet:ignore[checkederr] read-only open; a close error cannot lose data
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return bytes.Equal(head[:], []byte("NSGB"))
}

// isBinaryStream reports whether the buffered reader starts with the binary
// trace magic, without consuming it.
func isBinaryStream(r *bufio.Reader) bool {
	head, err := r.Peek(4)
	return err == nil && bytes.Equal(head, []byte("NSGB"))
}

// streamBinaryFile replays a binary trace file through the incremental
// checker event-by-event, never holding the behavior in memory. Returns
// (exitCode, false) to terminate on rejection or I/O error, (0, true) when
// every prefix was accepted.
func streamBinaryFile(path string, stdout, stderr io.Writer) (int, bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "sgcheck:", err)
		return 2, false
	}
	defer f.Close() //sgvet:ignore[checkederr] read-only open; a close error cannot lose data
	d, err := event.NewBinaryDecoder(f)
	if err != nil {
		fmt.Fprintln(stderr, "sgcheck:", err)
		return 2, false
	}
	_, code, ok := streamDecode(d, false, stdout, stderr)
	return code, ok
}

// streamDecode drives the incremental checker straight off a binary
// decoder. With keep set it also accumulates the decoded events, for inputs
// (stdin) that cannot be read a second time by the batch check. Returns
// (kept, exitCode, ok): ok is false when the caller should terminate with
// exitCode (rejection or I/O error).
func streamDecode(d *event.BinaryDecoder, keep bool, stdout, stderr io.Writer) (event.Behavior, int, bool) {
	total := d.Remaining()
	inc := core.NewIncremental(d.Tree())
	var kept event.Behavior
	if keep {
		kept = make(event.Behavior, 0, total)
	}
	for i := 0; ; i++ {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(stderr, "sgcheck:", err)
			return nil, 2, false
		}
		if keep {
			kept = append(kept, e)
		}
		if cyc := inc.Append(e); cyc != nil {
			fmt.Fprintf(stdout, "stream: rejected at event %d/%d — %s\n", i, total, cyc.Format(d.Tree()))
			return nil, 1, false
		}
	}
	fmt.Fprintf(stdout, "stream: all %d prefixes have acyclic SGs (binary streaming decode)\n", total)
	return kept, 0, true
}
