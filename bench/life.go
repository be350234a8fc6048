package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"nestedsg/internal/client"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/wire"
)

// chunkTx is the most transactions one client runs between two calibration
// measurements.
const chunkTx = 125

// segment accumulates what one segment — a fixed, seeded amount of work —
// measured. Everything timed is on the calibrated clock.
type segment struct {
	attempted, committed, failed int
	bodies                       int       // body entries = attempts
	rawElapsed, calElapsed       float64   // seconds inside timed windows
	calCPU                       float64   // µs of process CPU inside timed windows
	lat                          []float64 // µs, one per committed transaction
	heapsMB                      []float64 // live heap at the end of each life
	setupS                       float64
	auditS                       float64 // Final() seconds, part of set-up
	calWall                      time.Duration
	factors                      []float64

	mallocs, allocBytes uint64 // inside timed windows
	gcPauseNs           uint64

	recs []*recorder // per client; nil when untraced

	// Quiesced logs for the replay metrics: a server workload's last
	// life, or every clean trace of check's corpus.
	logs []capturedLog
}

// capturedLog is a behavior with the system type it is over.
type capturedLog struct {
	tr *tname.Tree
	b  event.Behavior
}

// meanFactor is the mean calibration factor of the segment's chunks; it
// scales the segment's set-up time.
func (s *segment) meanFactor() float64 {
	if len(s.factors) == 0 {
		return 1
	}
	return mean(s.factors)
}

// window is one timed window: the calibration measured just before it and
// the counters read as it opened.
type window struct {
	factor                float64 // the machine's calibration factor
	diskFactor            float64 // the disk's; 0 without a WAL
	mallocs, bytes, pause uint64
	cpu0                  time.Duration
	start                 time.Time
}

// openWindow times the calibration kernel — and, for a workload whose WAL
// lives in walDir, the disk probe — charges it to the segment and opens a
// timed window.
func (r *runner) openWindow(seg *segment, walDir string) (window, error) {
	var win window
	var err error
	t0 := time.Now()
	if walDir != "" {
		win.factor, win.diskFactor, err = r.cal.measureWAL(walDir)
	} else {
		win.factor, err = r.cal.measure()
	}
	if err != nil {
		return window{}, err
	}
	seg.calWall += time.Since(t0)
	seg.factors = append(seg.factors, win.factor)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	win.mallocs, win.bytes, win.pause = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	win.cpu0, win.start = cpuTime(), time.Now()
	return win, nil
}

// close ends the window, books it to the segment and returns the factor its
// wall time was scaled by (wallFactor). syncWall is how much of the window
// the WAL spent inside fsync, 0 without one. CPU time always takes the
// machine's factor.
func (win window) close(seg *segment, syncWall time.Duration) float64 {
	elapsed := time.Since(win.start)
	cpu := cpuTime() - win.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f := wallFactor(elapsed, cpu, syncWall, win.factor, win.diskFactor)
	seg.mallocs += ms.Mallocs - win.mallocs
	seg.allocBytes += ms.TotalAlloc - win.bytes
	seg.gcPauseNs += ms.PauseTotalNs - win.pause
	seg.rawElapsed += elapsed.Seconds()
	seg.calElapsed += elapsed.Seconds() * f
	seg.calCPU += float64(cpu.Microseconds()) * win.factor
	return f
}

// liveHeapMB collects garbage and returns what is left.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime returns the process's user+system CPU time, from the process CPU
// clock: getrusage reports the same quantity, but only to some 20 µs, too
// coarse for one transaction.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// sample is one committed transaction: its latency, and how much of that
// interval the process spent on a processor and the WAL inside fsync. The
// two say how much of the latency the machine's and the disk's factor
// apply to (wallFactor): a transaction that never waited is all processor
// time, one that slept through lock-wait polls hardly any.
type sample struct {
	lat, cpu, sync time.Duration
}

// clientState is one connection's part of a life.
type clientState struct {
	conn  *client.Conn
	plans []txPlan
	rec   *recorder  // nil when untraced
	disk  *timedDisk // nil without a WAL

	lat                     []sample // one per committed tx, this chunk
	committed, failed, body int
	err                     error
}

// checkValue rejects an access result no correct server can return: a
// write answers OK; a read answers the transaction's own latest write to
// that object if there is one (it holds the lock, or reads its own
// version), and otherwise some planned write argument or the initial 0.
func checkValue(p *txPlan, i int, v spec.Value) error {
	a := p.acc[i]
	if a.op == spec.OpWrite {
		if v != spec.OK {
			return fmt.Errorf("write %s returned %v, want OK", a.obj, v)
		}
		return nil
	}
	for j := i - 1; j >= 0; j-- {
		if p.acc[j].obj == a.obj && p.acc[j].op == spec.OpWrite {
			if v != p.acc[j].arg {
				return fmt.Errorf("read %s returned %v after own write of %v", a.obj, v, p.acc[j].arg)
			}
			return nil
		}
	}
	if v.Kind != spec.VInt || v.Int < 0 || v.Int >= 100 {
		return fmt.Errorf("read %s returned %v, outside every written value", a.obj, v)
	}
	return nil
}

// runPlan runs one transaction through RunTx / RunReadTx.
func (cs *clientState) runPlan(p *txPlan, epoch time.Time) error {
	run := cs.conn.RunTx
	if p.allRead {
		run = cs.conn.RunReadTx
	}
	if cs.rec == nil {
		return run(maxAttempts, func(tx *client.Tx) error {
			cs.body++
			for i := range p.acc {
				a := &p.acc[i]
				if a.child {
					if _, err := tx.Child(); err != nil {
						return err
					}
				}
				v, err := tx.Access(a.obj, a.op, a.arg)
				if err != nil {
					return err
				}
				if err := checkValue(p, i, v); err != nil {
					return err
				}
				if a.child {
					if _, err := tx.Commit(); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}

	// Traced: the same calls, each between two clock reads.
	rec := cs.rec
	now := func() int64 { return int64(time.Since(epoch)) }
	id := rec.nextTx
	rec.nextTx += rec.stride
	start := now()
	txSpan := rec.add(spanTx, -1, id, start, start)
	rec.spans[txSpan].RO = p.allRead
	first, lastExit := true, start
	err := run(maxAttempts, func(tx *client.Tx) error {
		t := now()
		if first {
			rec.add(spanBegin, txSpan, id, start, t)
			first = false
		}
		cs.body++
		var err error
		for i := range p.acc {
			a := &p.acc[i]
			if a.child {
				var name string
				name, err = tx.Child()
				t1 := now()
				rec.add(spanChild, txSpan, id, t, t1)
				rec.frame(wire.Request{Cmd: wire.CmdChild}, wire.Response{Name: name})
				t = t1
				if err != nil {
					break
				}
			}
			var v spec.Value
			v, err = tx.Access(a.obj, a.op, a.arg)
			t1 := now()
			rec.add(spanAccess, txSpan, id, t, t1)
			t = t1
			if err != nil {
				break
			}
			rec.frame(wire.Request{Cmd: wire.CmdAccess, Obj: a.obj, Op: a.op, Arg: a.arg}, wire.Response{Value: v})
			if err = checkValue(p, i, v); err != nil {
				break
			}
			if a.child {
				var seq uint64
				seq, err = tx.Commit()
				t1 := now()
				rec.add(spanSubcommit, txSpan, id, t, t1)
				rec.frame(wire.Request{Cmd: wire.CmdCommit}, wire.Response{Seq: seq})
				t = t1
				if err != nil {
					break
				}
			}
		}
		lastExit = t
		return err
	})
	end := now()
	if err == nil {
		rec.add(spanCommit, txSpan, id, lastExit, end)
	}
	rec.spans[txSpan].End = end
	return err
}

// runChunk runs the client's next n transactions, timing each.
func (cs *clientState) runChunk(from, to int, epoch time.Time) {
	cs.lat = cs.lat[:0]
	for i := from; i < to; i++ {
		p := &cs.plans[i]
		var sync0 time.Duration
		if cs.disk != nil {
			sync0 = cs.disk.syncWall()
		}
		cpu0 := cpuTime()
		t0 := time.Now()
		err := cs.runPlan(p, epoch)
		if err != nil {
			if errors.Is(err, client.ErrTxAborted) {
				cs.failed++ // attempts exhausted
				continue
			}
			cs.err = err
			return
		}
		smp := sample{lat: time.Since(t0), cpu: cpuTime() - cpu0}
		if cs.disk != nil {
			smp.sync = cs.disk.syncWall() - sync0
		}
		cs.lat = append(cs.lat, smp)
		cs.committed++
	}
}

// lifeResult is what one server life hands to the layer metrics.
type lifeResult struct {
	snap     map[string]any // MetricsSnapshot after the drain
	disk     *timedDisk     // durable lives only
	recovery *server.RecoveryReport
	recoverS float64
}

// life runs one fresh server from boot to audit: the timed windows go to
// seg, everything else is set-up.
func (r *runner) life(w *workload, seg *segment, lifeSeed int64, last bool) (*lifeResult, error) {
	labels := objectLabels(w.mix.objects)
	perClient := w.txPerLife / w.clients
	states := make([]*clientState, w.clients)
	for k := range states {
		states[k] = &clientState{plans: genPlans(deriveSeed(lifeSeed, k), perClient, w.mix, labels)}
		if seg.recs != nil {
			states[k].rec = seg.recs[k]
		}
	}
	runtime.GC()

	// Only Backend, Objects, DefaultSpec and WAL are set: every other
	// option keeps the product's default, so a changed default shows.
	opts := server.Options{Backend: w.backend, Objects: labels, DefaultSpec: spec.Register{}}
	res := &lifeResult{}
	var srv *server.Server
	var walDir string
	if w.wal {
		var err error
		walDir, err = os.MkdirTemp(r.tmpDir, "wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
		res.disk, err = newTimedDisk(filepath.Join(walDir, "log"))
		if err != nil {
			return nil, err
		}
		opts.WAL = res.disk
		for _, cs := range states {
			cs.disk = res.disk
		}
		srv, _, err = server.Recover(opts)
		if err != nil {
			return nil, fmt.Errorf("boot durable server: %w", err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
	} else {
		var err error
		srv, err = server.Listen("127.0.0.1:0", opts)
		if err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Kill()
		}
	}()
	addr := srv.Addr().String()
	for _, cs := range states {
		c, err := client.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		cs.conn = c
	}

	for from := 0; from < perClient; from += chunkTx {
		to := from + chunkTx
		if to > perClient {
			to = perClient
		}
		marks := make([]int, len(states))
		for k, cs := range states {
			if cs.rec != nil {
				marks[k] = len(cs.rec.spans)
			}
		}
		var probeDir string
		if w.wal {
			probeDir = r.tmpDir
		}
		win, err := r.openWindow(seg, probeDir)
		if err != nil {
			return nil, err
		}
		var syncWall0 time.Duration
		if w.wal {
			syncWall0 = res.disk.syncWall()
		}
		var wg sync.WaitGroup
		for _, cs := range states {
			wg.Add(1)
			go func(cs *clientState) {
				defer wg.Done()
				cs.runChunk(from, to, r.epoch)
			}(cs)
		}
		wg.Wait()
		var syncWall time.Duration
		if w.wal {
			syncWall = res.disk.syncWall() - syncWall0
		}
		factor := win.close(seg, syncWall)
		for k, cs := range states {
			if cs.err != nil {
				return nil, fmt.Errorf("client: %w", cs.err)
			}
			if cs.rec != nil {
				// The chunk's spans learn their factor only now.
				for i := marks[k]; i < len(cs.rec.spans); i++ {
					cs.rec.spans[i].Factor = factor
				}
			}
			for _, smp := range cs.lat {
				seg.lat = append(seg.lat, float64(smp.lat)/1e3*wallFactor(smp.lat, smp.cpu, smp.sync, win.factor, win.diskFactor))
			}
		}
	}
	committed := 0
	for _, cs := range states {
		committed += cs.committed
		seg.committed += cs.committed
		seg.failed += cs.failed
		seg.bodies += cs.body
		seg.attempted += len(cs.plans)
	}
	// The memory metric: live heap with the server still up, every life.
	seg.heapsMB = append(seg.heapsMB, liveHeapMB())
	if err := srv.AuditObjects(); err != nil {
		return nil, fmt.Errorf("object audit: %w", err)
	}
	for _, cs := range states {
		cs.conn.Close()
	}

	if w.wal {
		// Leave one transaction in flight, crash, lose the unsynced tail,
		// recover, and demand every acknowledged commit back.
		orphan, err := client.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer orphan.Close()
		if _, err := orphan.Begin(); err != nil {
			return nil, err
		}
		if _, err := orphan.Access(labels[0], spec.OpWrite, spec.Int(1)); err != nil {
			return nil, err
		}
		srv.Kill()
		stopped = true
		res.snap = srv.MetricsSnapshot()
		if err := r.gate(w, srv, res.snap, committed, seg); err != nil {
			return nil, err
		}
		if _, err := res.disk.Crash(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		rsrv, rep, err := server.Recover(opts)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		res.recoverS = time.Since(t0).Seconds()
		res.recovery = rep
		if !rep.AuditOK {
			rsrv.Kill()
			return nil, errors.New("recover: audit not ok")
		}
		if err := rsrv.Shutdown(context.Background()); err != nil {
			return nil, err
		}
		tr, log := rsrv.Tree(), rsrv.Log()
		survived := 0
		for _, e := range log {
			if e.Kind == event.Commit && tr.Parent(e.Tx) == tname.Root {
				survived++
			}
		}
		// Every client had its last commit acknowledged before the crash,
		// and each session's commits are a prefix of what it sent, so
		// counting is enough: the recovered log holds exactly the
		// acknowledged commits (the orphan never committed), or the run
		// fails.
		if survived != committed {
			return nil, fmt.Errorf("recover: %d acknowledged commits, %d in the recovered log (%s)", committed, survived, rep.Summary())
		}
		if last {
			seg.logs = []capturedLog{{tr, log}}
		}
		return res, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	stopped = true
	res.snap = srv.MetricsSnapshot()
	if err := r.gate(w, srv, res.snap, committed, seg); err != nil {
		return nil, err
	}
	if last {
		seg.logs = []capturedLog{{srv.Tree(), srv.Log()}}
	}
	return res, nil
}

// snapInt reads an integer counter out of a metrics snapshot.
func snapInt(m map[string]any, key string) int64 {
	switch v := m[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

func snapFloat(m map[string]any, key string) float64 {
	switch v := m[key].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return 0
}

// gate is the correctness check every life must pass once its server has
// stopped: the batch verdict holds and equals the online one, nothing was
// acknowledged uncertified or undurable, and the server committed exactly
// what the clients were told it committed.
func (r *runner) gate(w *workload, srv *server.Server, snap map[string]any, committed int, seg *segment) error {
	t0 := time.Now()
	f := srv.Final()
	seg.auditS += time.Since(t0).Seconds()
	if !f.Batch.OK || !f.Match {
		return fmt.Errorf("%s: %s", w.name, f.Summary)
	}
	if n := snapInt(snap, "uncertified"); n != 0 {
		return fmt.Errorf("%s: %d uncertified commits", w.name, n)
	}
	if n := snapInt(snap, "wal_failures"); n != 0 {
		return fmt.Errorf("%s: %d wal failures", w.name, n)
	}
	if err := srv.WALError(); err != nil {
		return fmt.Errorf("%s: wal: %w", w.name, err)
	}
	if got := snapInt(snap, "top_commits") + snapInt(snap, "mvto_ro_begins"); got != int64(committed) {
		return fmt.Errorf("%s: clients saw %d commits, server counted %d", w.name, committed, got)
	}
	return nil
}
