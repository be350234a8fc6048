package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/serial"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	progen "nestedsg/internal/workload"
)

// The check workload is the paper's artefact without a server: NSGB-encoded
// traces, each certified by both engines — decode everything then batch
// core.Check, and streaming decode into core.Incremental.

// corpusShape is one trace of the corpus. proto "" means the serial
// scheduler (the specification system); otherwise the generic runner under
// that protocol.
type corpusShape struct {
	topLevel, depth, objects int
	hot                      float64
	proto                    string
}

// corpusShapes spans what the checkers' cost depends on: history length,
// nesting depth (deep nesting gives many small parent graphs where a
// server log has one huge one), object count and skew (conflict density),
// and the protocol that shaped the interleaving. Sizes are chosen so that
// every trace costs about the same to certify: the serial scheduler
// commits everything, so its conflict scans are quadratic and its traces
// are short. Each shape is generated corpusCopies times with different
// seeds: what a trace costs depends on the seed by some ±15 %, and only a
// sum over many traces — or a percentile taken among many — is steady.
var corpusShapes = []corpusShape{
	{96, 1, 4, 0, "moss"},
	{48, 3, 32, 0.5, "undolog"},
	{96, 1, 32, 0.5, "moss"},
	{48, 2, 4, 0, ""},
	{96, 1, 4, 0.5, "undolog"},
	{48, 3, 32, 0, "moss"},
	{64, 1, 32, 0, ""},
	{64, 3, 4, 0.5, "moss"},
	{128, 1, 4, 0, "undolog"},
	{48, 2, 32, 0.5, ""},
	{96, 1, 32, 0, "moss"},
	{72, 3, 4, 0, "undolog"},
}

const corpusCopies = 2

// corpusTrace is one encoded trace and what is known about it.
type corpusTrace struct {
	shape    corpusShape
	data     []byte // NSGB
	topLevel int
	events   int
	broken   bool // must be rejected with a cycle by both engines
}

func protocolByName(name string) object.Protocol {
	if name == "undolog" {
		return undolog.Protocol{}
	}
	return locking.Protocol{}
}

// buildCorpus generates the segment's traces from seed: the shapes above
// scaled by scale (1 = full size), plus two broken-protocol traces.
func buildCorpus(seed int64, scale float64) ([]corpusTrace, error) {
	var corpus []corpusTrace
	for i := 0; i < corpusCopies*len(corpusShapes); i++ {
		sh := corpusShapes[i%len(corpusShapes)]
		top := int(float64(sh.topLevel) * scale)
		if top < 4 {
			top = 4
		}
		tr := tname.NewTree()
		cfg := progen.Config{Seed: deriveSeed(seed, i, 0), TopLevel: top, Depth: sh.depth,
			Fanout: 3, Objects: sh.objects, HotProb: sh.hot, ParProb: 0.5}
		root := progen.Build(tr, cfg)
		var b event.Behavior
		var err error
		if sh.proto == "" {
			b, err = serial.Run(tr, root, serial.Options{Seed: deriveSeed(seed, i, 1)})
		} else {
			b, _, err = generic.Run(tr, root, generic.Options{Seed: deriveSeed(seed, i, 1),
				Protocol: protocolByName(sh.proto)})
		}
		if err != nil {
			return nil, fmt.Errorf("corpus trace %d: %w", i, err)
		}
		corpus = append(corpus, corpusTrace{shape: sh, data: event.MarshalBinaryTrace(tr, b),
			topLevel: top, events: len(b)})
	}
	// Two negative controls: a read/update locking automaton that ignores
	// read locks produces non-serializable histories; search the seed
	// sequence for two whose violation is an SG cycle.
	found := 0
	for try := 0; found < 2 && try < 400; try++ {
		tr := tname.NewTree()
		root := progen.Build(tr, progen.Config{Seed: deriveSeed(seed, 100, try), TopLevel: 5, Depth: 1,
			Fanout: 3, Objects: 1, HotProb: 1, ParProb: 0.8, ReadRatio: 0.4})
		b, _, err := generic.Run(tr, root, generic.Options{Seed: deriveSeed(seed, 101, try),
			Protocol: locking.BrokenProtocol{Mode: locking.IgnoreReadLocks}})
		if err != nil {
			continue
		}
		if res := core.Check(tr, b); res.Cycle == nil {
			continue
		}
		corpus = append(corpus, corpusTrace{data: event.MarshalBinaryTrace(tr, b), topLevel: 5,
			events: len(b), broken: true})
		found++
	}
	if found < 2 {
		return nil, errors.New("corpus: no cyclic broken-protocol trace found")
	}
	return corpus, nil
}

// certifyBatch decodes the whole trace and runs the batch check.
func certifyBatch(data []byte) (*core.Result, int, error) {
	tr, b, err := event.ReadBinaryTrace(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	return core.Check(tr, b), len(b), nil
}

// certifyStream decodes event by event into the incremental checker and
// returns the first cycle, if any.
func certifyStream(data []byte) (*core.Cycle, int, error) {
	dec, err := event.NewBinaryDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	inc := core.NewIncremental(dec.Tree())
	n := 0
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, n, err
		}
		inc.Append(e)
		n++
	}
	cyc, _ := inc.Rejected()
	return cyc, n, nil
}

// checkSegment certifies every (trace, engine) pair reps times, one
// calibration per round.
func (r *runner) checkSegment(seg *segment, seed int64) error {
	corpus, err := buildCorpus(seed, r.size.corpusScale)
	if err != nil {
		return err
	}
	// The negative controls are part of the gate, not of the timing.
	for _, ct := range corpus {
		if !ct.broken {
			continue
		}
		res, _, err := certifyBatch(ct.data)
		if err != nil {
			return err
		}
		cyc, _, err := certifyStream(ct.data)
		if err != nil {
			return err
		}
		if res.OK || res.Cycle == nil || cyc == nil {
			return errors.New("check: a broken-protocol trace was not rejected with a cycle by both engines")
		}
	}
	runtime.GC()
	for rep := 0; rep < r.size.checkReps; rep++ {
		win, err := r.openWindow(seg, "")
		if err != nil {
			return err
		}
		for _, ct := range corpus {
			if ct.broken {
				continue
			}
			p0 := time.Now()
			res, n, err := certifyBatch(ct.data)
			p1 := time.Now()
			if err != nil {
				return err
			}
			if !res.OK || n != ct.events {
				return fmt.Errorf("check: batch engine refused a correct trace (%+v)", ct.shape)
			}
			cyc, n, err := certifyStream(ct.data)
			p2 := time.Now()
			if err != nil {
				return err
			}
			if cyc != nil || n != ct.events {
				return fmt.Errorf("check: streaming engine refused a correct trace (%+v)", ct.shape)
			}
			perTx := win.factor / 1e3 / float64(ct.topLevel)
			seg.lat = append(seg.lat, float64(p1.Sub(p0))*perTx, float64(p2.Sub(p1))*perTx)
			seg.committed += 2 * ct.topLevel
			r.layer.checkEvents += 2 * ct.events
		}
		win.close(seg, 0)
	}
	seg.attempted = seg.committed
	seg.heapsMB = append(seg.heapsMB, liveHeapMB())
	runtime.KeepAlive(corpus)

	// Hand the clean traces to the replay metrics.
	for _, ct := range corpus {
		if ct.broken {
			continue
		}
		tr, b, err := event.ReadBinaryTrace(bytes.NewReader(ct.data))
		if err != nil {
			return err
		}
		seg.logs = append(seg.logs, capturedLog{tr, b})
	}
	return nil
}
