package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/graph"
	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/part"
	"nestedsg/internal/replica"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/wire"
)

// perLayer names every per-layer metric, in the order of BENCHMARK.json.
// They come from the traced pass and carry no bound. A metric a workload
// has no use for (wal.* without a WAL, everything server-side on check)
// reads 0 there.
var perLayer = []metricDef{
	// client: spans recorded around each client call (medians, calibrated).
	{"client.begin_us", "us", "lower", 0},
	{"client.access_us", "us", "lower", 0},
	{"client.child_us", "us", "lower", 0},
	{"client.subcommit_us", "us", "lower", 0},
	{"client.commit_us", "us", "lower", 0},
	{"client.ro_tx_us", "us", "lower", 0},
	{"client.backoff_us_per_tx", "us", "lower", 0},
	{"client.attempts_per_tx", "count", "lower", 0},
	{"client.tx_p99_us", "us", "lower", 0},
	// wire
	{"wire.ping_us", "us", "lower", 0},
	{"wire.frames_per_tx", "count", "lower", 0},
	{"wire.codec_ns_per_frame", "ns", "lower", 0},
	// session: server counters and (power-of-two bucket) histograms.
	{"session.req_p50_us", "us", "lower", 0},
	{"session.commit_p50_us", "us", "lower", 0},
	{"session.blocked_polls_per_tx", "count", "lower", 0},
	{"session.lock_timeouts", "count", "lower", 0},
	{"session.deadlock_aborts_per_ktx", "count", "lower", 0},
	{"session.restart_aborts_per_ktx", "count", "lower", 0},
	{"session.retries_per_tx", "count", "lower", 0},
	// backend: one access through each object automaton, by replay.
	{"backend.moss_access_ns", "ns", "lower", 0},
	{"backend.undolog_access_ns", "ns", "lower", 0},
	{"backend.mvto_access_ns", "ns", "lower", 0},
	{"backend.replica_access_ns", "ns", "lower", 0},
	{"backend.mvto_ro_share", "ratio", "higher", 0},
	{"backend.mvto_snapshot_reads_per_tx", "count", "higher", 0},
	// log
	{"log.events_per_tx", "count", "lower", 0},
	{"log.merge_lag_mean", "count", "lower", 0},
	{"log.merge_batch_mean", "count", "higher", 0},
	{"log.shard_imbalance", "ratio", "lower", 0},
	// wal and recovery
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs_per_commit", "count", "lower", 0},
	{"wal.group_size_mean", "count", "higher", 0},
	{"wal.bytes_per_tx", "B", "lower", 0},
	{"recovery.ms_per_kevent", "ms", "lower", 0},
	{"recovery.lost_acked", "count", "lower", 0},
	// certifier and graph, by replay of the captured log
	{"cert.incremental_ns_per_event", "ns", "lower", 0},
	{"cert.part1_ns_per_event", "ns", "lower", 0},
	{"cert.part4_ns_per_event", "ns", "lower", 0},
	{"cert.sg_edges_per_tx", "count", "lower", 0},
	{"cert.sg_nodes", "count", "lower", 0},
	{"cert.growth_ratio", "ratio", "lower", 0},
	{"graph.pk_addedge_ns", "ns", "lower", 0},
	// batch checker and trace codec, by replay
	{"core.check_ns_per_event", "ns", "lower", 0},
	{"core.edges_per_event", "count", "lower", 0},
	{"core.audit_s", "s", "lower", 0},
	{"event.decode_ns_per_event", "ns", "lower", 0},
	{"event.encode_ns_per_event", "ns", "lower", 0},
	{"event.bytes_per_event", "B", "lower", 0},
	// runtime and the harness itself
	{"rt.allocs_per_tx", "count", "lower", 0},
	{"rt.alloc_bytes_per_tx", "B", "lower", 0},
	{"rt.gc_pause_ms", "ms", "lower", 0},
	{"bench.cal_slowdown", "ratio", "lower", 0},
	{"bench.fsync_probe_us", "us", "lower", 0},
	{"bench.cal_share", "ratio", "lower", 0},
	{"bench.raw_tx_per_s", "1/s", "higher", 0},
	{"bench.segment_spread", "ratio", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

// layerAcc sums, over every life of a run, the deltas of the server's own
// counters — each life is a fresh server, so its final snapshot is its
// delta — and what the disk wrapper and Recover reported.
type layerAcc struct {
	requests, begins, topCommits                 int64
	blockedPolls, lockTimeouts                   int64
	deadlockAborts, restartAborts, retries       int64
	logEvents, sgEdges, sgNodes                  int64
	walSyncs                                     int64
	snapshotReads, roBegins                      int64
	shardAppends                                 []int64
	reqP50, commitP50, mergeLag, mergeBatch, grp []float64

	syncNs          []int64
	walBytes        int64
	recoverS        float64
	recoveredEvents int

	checkEvents int // events certified by the offline engines
}

func (a *layerAcc) addLife(res *lifeResult) {
	s := res.snap
	a.requests += snapInt(s, "requests")
	a.begins += snapInt(s, "begins")
	a.topCommits += snapInt(s, "top_commits")
	a.blockedPolls += snapInt(s, "blocked_polls")
	a.lockTimeouts += snapInt(s, "lock_timeouts")
	a.deadlockAborts += snapInt(s, "deadlock_aborts")
	a.restartAborts += snapInt(s, "restart_aborts")
	a.retries += snapInt(s, "retries")
	a.logEvents += snapInt(s, "log_events")
	a.sgEdges += snapInt(s, "sg_edges")
	a.sgNodes = snapInt(s, "sg_nodes")
	a.walSyncs += snapInt(s, "wal_syncs")
	a.snapshotReads += snapInt(s, "mvto_snapshot_reads")
	a.roBegins += snapInt(s, "mvto_ro_begins")
	for i := 0; ; i++ {
		v, ok := s[fmt.Sprintf("log_shard_appends_%d", i)]
		if !ok {
			break
		}
		if i >= len(a.shardAppends) {
			a.shardAppends = append(a.shardAppends, 0)
		}
		n, _ := v.(int64)
		a.shardAppends[i] += n
	}
	a.reqP50 = append(a.reqP50, snapFloat(s, "req_p50_us"))
	a.commitP50 = append(a.commitP50, snapFloat(s, "commit_p50_us"))
	a.mergeLag = append(a.mergeLag, snapFloat(s, "merge_lag_mean"))
	a.mergeBatch = append(a.mergeBatch, snapFloat(s, "merge_batch_size_mean"))
	if res.disk != nil {
		a.grp = append(a.grp, snapFloat(s, "group_size_mean"))
		a.syncNs = append(a.syncNs, res.disk.syncNs...)
		a.walBytes += res.disk.bytes
	}
	if res.recovery != nil {
		a.recoverS += res.recoverS
		a.recoveredEvents += res.recovery.DurableEvents
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeReps calls fn until at least minDur has passed (at least once) and
// returns the mean nanoseconds per call.
func timeReps(minDur time.Duration, fn func()) float64 {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if d := time.Since(start); d >= minDur {
			return float64(d) / float64(n)
		}
	}
}

// layerMetrics fills res.metrics with every per-layer metric.
func (r *runner) layerMetrics(w *workload, res *runResult) error {
	m := res.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	a, seg := &r.layer, res.traced
	committed := float64(res.committed)

	// Harness and runtime.
	untraced := make([]float64, len(res.segs))
	var rawTx, rawS float64
	var mallocs, allocBytes, pauseNs uint64
	var p99s, audits []float64
	for i, s := range res.segs {
		untraced[i] = float64(s.committed) / s.calElapsed
		rawTx += float64(s.committed)
		rawS += s.rawElapsed
		mallocs += s.mallocs
		allocBytes += s.allocBytes
		pauseNs += s.gcPauseNs
		p99s = append(p99s, percentile(s.lat, 0.99))
		audits = append(audits, s.auditS)
	}
	m["bench.raw_tx_per_s"] = ratio(rawTx, rawS)
	m["bench.segment_spread"] = spread(untraced)
	m["bench.trace_overhead"] = ratio(median(untraced), float64(seg.committed)/seg.calElapsed)
	m["rt.allocs_per_tx"] = ratio(float64(mallocs), rawTx)
	m["rt.alloc_bytes_per_tx"] = ratio(float64(allocBytes), rawTx)
	m["rt.gc_pause_ms"] = float64(pauseNs) / 1e6 / float64(len(res.segs))
	m["client.tx_p99_us"] = median(p99s)
	m["core.audit_s"] = median(audits)

	if !w.offline {
		res.spans = summarizeSpans(seg.recs)
		clientMetrics(m, seg, res.spans)
		path, err := writeSpans(r.outDir, w.name, seg.recs)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.spanFile = path

		// Server counters, summed over every life of the run.
		m["wire.frames_per_tx"] = ratio(2*float64(a.requests), committed)
		m["session.req_p50_us"] = median(a.reqP50)
		m["session.commit_p50_us"] = median(a.commitP50)
		m["session.blocked_polls_per_tx"] = ratio(float64(a.blockedPolls), committed)
		m["session.lock_timeouts"] = float64(a.lockTimeouts)
		m["session.deadlock_aborts_per_ktx"] = ratio(1000*float64(a.deadlockAborts), committed)
		m["session.restart_aborts_per_ktx"] = ratio(1000*float64(a.restartAborts), committed)
		m["session.retries_per_tx"] = ratio(float64(a.retries), committed)
		m["backend.mvto_ro_share"] = ratio(float64(a.roBegins), float64(a.roBegins+a.begins))
		m["backend.mvto_snapshot_reads_per_tx"] = ratio(float64(a.snapshotReads), committed)
		m["log.events_per_tx"] = ratio(float64(a.logEvents), float64(a.topCommits))
		m["log.merge_lag_mean"] = mean(a.mergeLag)
		m["log.merge_batch_mean"] = mean(a.mergeBatch)
		var shardMax, shardSum float64
		for _, n := range a.shardAppends {
			shardSum += float64(n)
			if float64(n) > shardMax {
				shardMax = float64(n)
			}
		}
		m["log.shard_imbalance"] = ratio(shardMax*float64(len(a.shardAppends)), shardSum)
		m["cert.sg_edges_per_tx"] = ratio(float64(a.sgEdges), float64(a.topCommits))
		m["cert.sg_nodes"] = float64(a.sgNodes)
		if w.wal {
			syncs := make([]float64, len(a.syncNs))
			for i, ns := range a.syncNs {
				syncs[i] = float64(ns) / 1e3
			}
			m["wal.fsync_us"] = median(syncs)
			m["wal.fsyncs_per_commit"] = ratio(float64(a.walSyncs), float64(a.topCommits))
			m["wal.group_size_mean"] = mean(a.grp)
			m["wal.bytes_per_tx"] = ratio(float64(a.walBytes), float64(a.topCommits))
			m["recovery.ms_per_kevent"] = ratio(a.recoverS*1e3, float64(a.recoveredEvents)/1e3)
			// A life that lost an acknowledged commit has failed the run, so a
			// run that gets here lost none.
			m["recovery.lost_acked"] = 0
		}

		ping, err := r.pingMetric(w)
		if err != nil {
			return err
		}
		m["wire.ping_us"] = ping
		m["wire.codec_ns_per_frame"] = r.codecMetric(seg)
		for _, b := range []struct {
			key   string
			proto func(tr *tname.Tree) object.Protocol
		}{
			{"backend.moss_access_ns", func(*tname.Tree) object.Protocol { return locking.Protocol{} }},
			{"backend.undolog_access_ns", func(*tname.Tree) object.Protocol { return undolog.Protocol{} }},
			{"backend.mvto_access_ns", func(tr *tname.Tree) object.Protocol { return mvto.NewStrictProtocol(tr) }},
			{"backend.replica_access_ns", func(*tname.Tree) object.Protocol {
				return replica.Protocol{Cfg: replica.Config{Copies: 3, ReadQuorum: 2, WriteQuorum: 2}}
			}},
		} {
			ns, err := r.backendMetric(w, b.proto)
			if err != nil {
				return fmt.Errorf("%s: %w", b.key, err)
			}
			m[b.key] = ns
		}
	} else {
		// No server log: the events per top-level transaction of the corpus.
		m["log.events_per_tx"] = ratio(float64(a.checkEvents), committed)
	}
	return r.replayMetrics(m, seg)
}

// spanSummary is the traced segment's spans by kind, in calibrated µs.
type spanSummary struct {
	byKind [numSpanKinds][]float64
	ro     []float64 // tx spans that ran through RunReadTx
	selfUs float64   // Σ tx self time
}

func summarizeSpans(recs []*recorder) *spanSummary {
	sp := &spanSummary{}
	for _, rec := range recs {
		self := selfTimes(rec.spans)
		for i, s := range rec.spans {
			us := float64(s.dur()) / 1e3 * s.Factor
			sp.byKind[s.Kind] = append(sp.byKind[s.Kind], us)
			if s.Kind == spanTx {
				sp.selfUs += float64(self[i]) / 1e3 * s.Factor
				if s.RO {
					sp.ro = append(sp.ro, us)
				}
			}
		}
	}
	return sp
}

// clientMetrics turns the span summary into the client.* metrics.
func clientMetrics(m map[string]float64, seg *segment, sp *spanSummary) {
	m["client.begin_us"] = median(sp.byKind[spanBegin])
	m["client.access_us"] = median(sp.byKind[spanAccess])
	m["client.child_us"] = median(sp.byKind[spanChild])
	m["client.subcommit_us"] = median(sp.byKind[spanSubcommit])
	m["client.commit_us"] = median(sp.byKind[spanCommit])
	m["client.ro_tx_us"] = median(sp.ro)
	m["client.backoff_us_per_tx"] = ratio(sp.selfUs, float64(seg.committed))
	m["client.attempts_per_tx"] = ratio(float64(seg.bodies), float64(seg.committed))
}

// pingMetric is the median of Conn.Ping round trips against a fresh, idle
// server: the floor under every request of a transaction.
func (r *runner) pingMetric(w *workload) (float64, error) {
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: w.backend,
		Objects: objectLabels(w.mix.objects), DefaultSpec: spec.Register{}})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for i := 0; i < 100; i++ { // warm the connection
		if err := c.Ping(); err != nil {
			return 0, err
		}
	}
	factor, err := r.cal.measure()
	if err != nil {
		return 0, err
	}
	us := make([]float64, r.size.pings)
	for i := range us {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3 * factor
	}
	return median(us), nil
}

// codecMetric runs the four codec functions over the frames the traced
// segment recorded: nanoseconds per frame, a request or a response.
func (r *runner) codecMetric(seg *segment) float64 {
	var frames []framePair
	for _, rec := range seg.recs {
		frames = append(frames, rec.frames...)
	}
	if len(frames) == 0 {
		return 0
	}
	factor, err := r.cal.measure()
	if err != nil {
		return 0
	}
	var qbuf, pbuf []byte
	bad := 0
	ns := timeReps(r.size.replay, func() {
		for i := range frames {
			f := &frames[i]
			qbuf = wire.AppendRequest(qbuf[:0], f.req)
			if _, err := wire.ParseRequest(qbuf); err != nil {
				bad++
			}
			pbuf = wire.AppendResponse(pbuf[:0], f.req.Cmd, f.resp)
			if _, err := wire.ParseResponse(f.req.Cmd, pbuf); err != nil {
				bad++
			}
		}
	})
	if bad > 0 {
		return 0
	}
	return ns / float64(2*len(frames)) * factor
}

// backendMetric drives one object automaton per object through the
// workload's operation mix, one transaction after the other: CREATE,
// REQUEST_COMMIT and the INFORM_COMMITs that hand the locks (or versions)
// up to T0. Nanoseconds per access.
func (r *runner) backendMetric(w *workload, mk func(*tname.Tree) object.Protocol) (float64, error) {
	const txs = 1500
	labels := objectLabels(w.mix.objects)
	plans := genPlans(deriveSeed(7, 1), txs, w.mix, labels)
	type step struct {
		acc, sub tname.TxID
		obj      tname.ObjID
	}
	build := func() (*tname.Tree, []object.Generic, [][accessesPerTx]step, []tname.TxID) {
		tr := tname.NewTree()
		proto := mk(tr)
		ids := make(map[string]tname.ObjID, len(labels))
		objs := make([]object.Generic, len(labels))
		for _, l := range labels {
			ids[l] = tr.AddObject(l, spec.Register{})
		}
		for _, l := range labels {
			objs[ids[l]] = proto.New(tr, ids[l])
		}
		steps := make([][accessesPerTx]step, len(plans))
		tops := make([]tname.TxID, len(plans))
		for i := range plans {
			tops[i] = tr.Child(tname.Root, fmt.Sprintf("t%d", i))
			for j, a := range plans[i].acc {
				parent, sub := tops[i], tname.None
				if a.child {
					sub = tr.Child(tops[i], fmt.Sprintf("c%d", j))
					parent = sub
				}
				x := ids[a.obj]
				steps[i][j] = step{acc: tr.Access(parent, fmt.Sprintf("a%d", j), x, spec.Op{Kind: a.op, Arg: a.arg}), sub: sub, obj: x}
			}
		}
		return tr, objs, steps, tops
	}
	factor, err := r.cal.measure()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	reps := 0
	for total < r.size.replay {
		_, objs, steps, tops := build()
		t0 := time.Now()
		for i := range steps {
			for _, st := range steps[i] {
				g := objs[st.obj]
				g.Create(st.acc)
				if _, ok := g.TryRequestCommit(st.acc); !ok {
					return 0, fmt.Errorf("sequential access blocked at tx %d", i)
				}
				g.InformCommit(st.acc)
				if st.sub != tname.None {
					g.InformCommit(st.sub)
				}
			}
			for _, st := range steps[i] {
				objs[st.obj].InformCommit(tops[i])
			}
		}
		total += time.Since(t0)
		reps++
	}
	return float64(total) / float64(reps*txs*accessesPerTx) * factor, nil
}

// replayMetrics feeds the traced segment's captured logs — a server
// workload's last life, or every clean trace of check's corpus — back into
// the certifier, the batch checker and the trace codec. A metric is total
// time over total events, one pass over all logs at a time.
func (r *runner) replayMetrics(m map[string]float64, seg *segment) error {
	logs := seg.logs
	var events int
	for _, l := range logs {
		events += len(l.b)
	}
	if events == 0 {
		return nil
	}
	n := float64(events)
	factor, err := r.cal.measure()
	if err != nil {
		return err
	}

	// Streaming certifier, with the cost of each log's first and last tenth.
	incs := make([]*core.Incremental, len(logs))
	for i, l := range logs {
		incs[i] = core.NewIncremental(l.tr)
	}
	var head, tail time.Duration
	m["cert.incremental_ns_per_event"] = timeReps(r.size.replay, func() {
		for i, l := range logs {
			inc, tenth := incs[i], len(l.b)/10
			inc.Reset()
			t0 := time.Now()
			for _, e := range l.b[:tenth] {
				inc.Append(e)
			}
			head += time.Since(t0)
			for _, e := range l.b[tenth : len(l.b)-tenth] {
				inc.Append(e)
			}
			t0 = time.Now()
			for _, e := range l.b[len(l.b)-tenth:] {
				inc.Append(e)
			}
			tail += time.Since(t0)
		}
	}) / n * factor
	for _, inc := range incs {
		if cyc, _ := inc.Rejected(); cyc != nil {
			return fmt.Errorf("replay: incremental checker rejected a captured log")
		}
	}
	m["cert.growth_ratio"] = ratio(float64(tail), float64(head))

	// Pearce–Kelly insertion: the transitive closure of a 1000-chain, in
	// order — the shape SG(β, T0) takes when every transaction conflicts
	// with every earlier one.
	const chain = 1000
	m["graph.pk_addedge_ns"] = timeReps(r.size.replay, func() {
		g := graph.NewIncremental(chain)
		for i := 0; i < chain; i++ {
			for j := i + 1; j < chain; j++ {
				g.AddEdge(i, j)
			}
		}
	}) / float64(chain*(chain-1)/2) * factor

	chks := make([]*core.Checker, len(logs))
	edges := make([]int, len(logs))
	for i, l := range logs {
		chks[i] = core.NewChecker(l.tr)
	}
	ok := true
	m["core.check_ns_per_event"] = timeReps(r.size.replay, func() {
		for i, l := range logs {
			res := chks[i].Check(l.b)
			ok = ok && res.OK
			if res.SG != nil {
				edges[i] = res.SG.NumEdges()
			}
		}
	}) / n * factor
	if !ok {
		return fmt.Errorf("replay: batch checker rejected a captured log")
	}
	var totalEdges int
	for _, e := range edges {
		totalEdges += e
	}
	m["core.edges_per_event"] = float64(totalEdges) / n

	// Prime ships each partition's edges to the composer as one batch and
	// panics when a batch exceeds wire.MaxEdgeBatch, so the partitioned
	// certifier replays the longest prefix that stays under the cap (SG
	// edges grow with the square of the history; aged needs the cut).
	prefixes := make([]event.Behavior, len(logs))
	var prefixEvents int
	for i, l := range logs {
		prefixes[i] = l.b
		for est := float64(edges[i]); est > 0.8*wire.MaxEdgeBatch; est *= 0.75 * 0.75 {
			prefixes[i] = prefixes[i][:len(prefixes[i])*3/4]
		}
		prefixEvents += len(prefixes[i])
	}
	for _, p := range []int{1, 4} {
		certs := make([]*part.Certifier, len(logs))
		for i, l := range logs {
			certs[i] = part.New(part.Config{Partitions: p, Tree: l.tr})
		}
		ns := timeReps(r.size.replay, func() {
			for i, c := range certs {
				c.Reset()
				c.Prime(prefixes[i])
			}
		})
		for _, c := range certs {
			if c.Cyclic() {
				return fmt.Errorf("replay: %d-partition certifier rejected a captured log", p)
			}
		}
		m[fmt.Sprintf("cert.part%d_ns_per_event", p)] = ns / float64(prefixEvents) * factor
	}

	data := make([][]byte, len(logs))
	var bytesTotal int
	m["event.encode_ns_per_event"] = timeReps(r.size.replay, func() {
		for i, l := range logs {
			data[i] = event.MarshalBinaryTrace(l.tr, l.b)
		}
	}) / n * factor
	for _, d := range data {
		bytesTotal += len(d)
	}
	m["event.bytes_per_event"] = float64(bytesTotal) / n
	var decErr error
	m["event.decode_ns_per_event"] = timeReps(r.size.replay, func() {
		for _, d := range data {
			dec, err := event.NewBinaryDecoder(bytes.NewReader(d))
			if err != nil {
				decErr = err
				return
			}
			for {
				if _, err := dec.Next(); err != nil {
					if err != io.EOF {
						decErr = err
					}
					break
				}
			}
		}
	}) / n * factor
	return decErr
}

// printLedger prints the first cut of the layer ledger: calibrated
// microseconds per committed transaction, by client span from the traced
// segment and by replay cost from outside the program, with the residual
// against the untraced median latency.
func printLedger(w io.Writer, res *runResult) {
	m := res.metrics
	seg := res.traced
	fmt.Fprintf(w, "ledger %s — calibrated us per committed tx\n", res.workload)
	if sp := res.spans; sp != nil {
		n := float64(seg.committed)
		total := func(k spanKind) float64 { return sum(sp.byKind[k]) / n }
		fmt.Fprintf(w, "  client spans (mean; a client's tx is the serial chain of these)\n")
		fmt.Fprintf(w, "    %-28s %10.1f\n", "tx", total(spanTx))
		for k := spanBegin; k < numSpanKinds; k++ {
			fmt.Fprintf(w, "    %-28s %10.1f   (%.2f per tx)\n", "  "+spanNames[k], total(k), float64(len(sp.byKind[k]))/n)
		}
		fmt.Fprintf(w, "    %-28s %10.1f   (refused commits, back-off sleeps, re-begins)\n", "  self", sp.selfUs/n)
	}
	// Events one committed client transaction puts in the log; read-only
	// snapshot transactions put none.
	events := eventsPerTx(m) * (1 - m["backend.mvto_ro_share"])
	if workloadByName(res.workload).offline {
		perTx := 1e6 / medianOver(res.segs, "tx_per_s")
		rows := []ledgerRow{
			{"trace decode", m["event.decode_ns_per_event"] * events / 1e3},
			{"batch check (half the pairs)", m["core.check_ns_per_event"] * events / 1e3 / 2},
			{"incremental check (the other half)", m["cert.incremental_ns_per_event"] * events / 1e3 / 2},
		}
		printRows(w, "by replay of the corpus", rows, perTx, "1e6 / tx_per_s", "tree decode, allocation, GC")
		return
	}
	rows := []ledgerRow{
		{"wire round trips (ping × requests)", m["wire.ping_us"] * m["wire.frames_per_tx"] / 2},
		{"wire codec", m["wire.codec_ns_per_frame"] * m["wire.frames_per_tx"] / 1e3},
		{"backend automaton (× 4 accesses)", backendNs(res, m) * accessesPerTx / 1e3},
		{"certifier, incremental", m["cert.incremental_ns_per_event"] * events / 1e3},
		{"wal fsync", m["wal.fsync_us"] * m["wal.fsyncs_per_commit"]},
	}
	printRows(w, "by replay, from outside the program (inside the spans above, on the server's side)", rows,
		medianOver(res.segs, "tx_p50_us"), "tx_p50_us", "session, log, merger, scheduler, waiting")
	fmt.Fprintf(w, "  off the commit path: batch audit %.1f us/tx, trace encode %.1f us/tx\n",
		m["core.check_ns_per_event"]*events/1e3, m["event.encode_ns_per_event"]*events/1e3)
}

type ledgerRow struct {
	name string
	us   float64
}

// printRows prints ledger rows, their sum and the residual against total.
func printRows(w io.Writer, title string, rows []ledgerRow, total float64, totalName, residualIs string) {
	fmt.Fprintf(w, "  %s\n", title)
	var accounted float64
	for _, row := range rows {
		fmt.Fprintf(w, "    %-36s %10.1f\n", row.name, row.us)
		accounted += row.us
	}
	fmt.Fprintf(w, "    %-36s %10.1f\n", "sum", accounted)
	fmt.Fprintf(w, "    %-36s %10.1f   (%s %.1f − sum: %s)\n", "residual", total-accounted, totalName, total, residualIs)
}

// backendNs picks the replay cost of the backend the workload runs.
func backendNs(res *runResult, m map[string]float64) float64 {
	if w := workloadByName(res.workload); w != nil && w.backend != "" {
		return m["backend."+w.backend+"_access_ns"]
	}
	return 0
}

// eventsPerTx is the certified log's events per top-level transaction.
func eventsPerTx(m map[string]float64) float64 { return m["log.events_per_tx"] }
