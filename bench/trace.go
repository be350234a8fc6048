package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nestedsg/internal/wire"
)

// Spans are recorded by the benchmark's own files around each call into the
// client API; spans inside the server are a later change. A transaction's
// spans share its tx id and name the tx span as their parent:
//
//	tx ⊃ { begin, access, child, subcommit, commit }
//
// RunTx owns BEGIN and the top-level COMMIT, so those two are delimited by
// what the benchmark can see: begin runs from the RunTx call to the first
// entry of the body, commit from the last return of the body to the return
// of RunTx (recorded for the successful attempt only). Whatever else
// happens between attempts — the refused commit, the client's back-off
// sleep, the second BEGIN — is covered by no child and therefore shows as
// the tx span's self time.

type spanKind uint8

const (
	spanTx spanKind = iota
	spanBegin
	spanAccess
	spanChild
	spanSubcommit
	spanCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"tx", "begin", "access", "child", "subcommit", "commit"}

// span is one timed interval. Start and End are nanoseconds since the
// run's epoch; Parent indexes the same recorder's slice (-1: none).
type span struct {
	Kind       spanKind
	Parent     int32
	Tx         int32
	Start, End int64
	// Factor is the calibration factor of the chunk the span ran in, set
	// when the chunk ends.
	Factor float64
	// RO marks a tx span that ran through RunReadTx.
	RO bool
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects one client's spans in memory; nothing is written until
// the run ends.
type recorder struct {
	spans []span
	// nextTx and stride hand out tx ids that no other client's recorder
	// uses.
	nextTx, stride int32
	// frames are the request/response pairs of the calls whose results the
	// benchmark sees (CHILD, ACCESS, subtransaction COMMIT), kept for the
	// wire codec replay; capped at maxFrames.
	frames []framePair
}

const maxFrames = 1 << 16

type framePair struct {
	req  wire.Request
	resp wire.Response
}

func (r *recorder) frame(q wire.Request, resp wire.Response) {
	if len(r.frames) < maxFrames {
		r.frames = append(r.frames, framePair{q, resp})
	}
}

func (r *recorder) add(kind spanKind, parent, tx int32, start, end int64) int32 {
	r.spans = append(r.spans, span{Kind: kind, Parent: parent, Tx: tx, Start: start, End: end})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range ks {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes the recorders' spans as one JSON document:
// {"workload":…, "unit":"ns", "columns":[…], "spans":[[id,parent,tx,"name",start,end,factor],…]}.
// Ids are global: recorder k's span i gets base_k + i.
func writeSpans(dir, workload string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"columns\":[\"id\",\"parent\",\"tx\",\"name\",\"start\",\"end\",\"cal_factor\"],\"spans\":[", workload)
	base, first := 0, true
	for _, r := range recs {
		for i, s := range r.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			fmt.Fprintf(w, "\n[%d,%d,%d,%q,%d,%d,%.4f]", base+i, parent, s.Tx, spanNames[s.Kind], s.Start, s.End, s.Factor)
		}
		base += len(r.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
