package server

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets; bucket i counts
// observations with ceil(log2(µs+1)) == i, so the range spans sub-µs to
// ~9 hours.
const histBuckets = 45

// Histogram is a lock-free power-of-two latency histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency sample.
//
//sgvet:hotpath
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveVal records one dimensionless sample (e.g. a commit-group size)
// in the same power-of-two buckets; read it back with QuantileVal/MeanVal.
//
//sgvet:hotpath
func (h *Histogram) ObserveVal(v int64) {
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(v)
}

// QuantileVal is Quantile for dimensionless samples: the upper bound of
// the bucket containing the q-quantile, 0 with no samples.
func (h *Histogram) QuantileVal(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return int64(1) << uint(i)
		}
	}
	return int64(1) << uint(histBuckets-1)
}

// MeanVal returns the exact mean of dimensionless samples.
func (h *Histogram) MeanVal() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNs.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket containing it. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(histBuckets-1)) * time.Microsecond
}

// Mean returns the mean observed latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Metrics holds the server's operational counters. All fields are atomics;
// the struct is safe to read while the server runs.
type Metrics struct {
	start time.Time

	// Request-level counters.
	Sessions atomic.Int64 // connections accepted
	Requests atomic.Int64 // frames handled

	// Transaction-level counters.
	Begins       atomic.Int64 // top-level transactions opened
	TopCommits   atomic.Int64 // top-level transactions committed (certified)
	Accesses     atomic.Int64 // access REQUEST_COMMITs granted
	BlockedPolls atomic.Int64 // refused grant attempts: an access's first refusal plus each refused re-try after a wake

	// Abort/retry counters.
	ClientAborts   atomic.Int64 // ABORT requests from clients
	LockTimeouts   atomic.Int64 // top-level aborts from lock-wait timeout
	DeadlockAborts atomic.Int64 // top-level aborts as waits-for cycle victim
	DrainAborts    atomic.Int64 // top-level aborts forced by shutdown
	RestartAborts  atomic.Int64 // top-level aborts forced by a protocol restart verdict (e.g. mvto too-late)
	Retries        atomic.Int64 // BEGINs that follow a server-side abort on the same session
	Uncertified    atomic.Int64 // commits whose certification failed (SG cycle)
	WALFailures    atomic.Int64 // commits refused because the WAL write/sync failed

	// Event counters (completion events appended to the log).
	CommitEvents atomic.Int64
	AbortEvents  atomic.Int64

	// Group-commit counters: sync requests enqueued by completing
	// sessions, fsyncs actually issued (WALSyncs ≤ WALSyncRequests; the
	// gap is the coalescing win), and the cohort-size distribution.
	WALSyncRequests atomic.Int64
	WALSyncs        atomic.Int64
	GroupSize       Histogram

	// AcceptRetries counts transient listener Accept failures that were
	// retried with backoff instead of killing the accept loop.
	AcceptRetries atomic.Int64

	// Latency histograms: all requests, and the COMMITs that closed a
	// top-level transaction (each includes the fsync and certifying the log
	// through its REPORT_COMMIT). Sub-commits, which wait for neither, and
	// read-only commits, which log nothing, are not in CommitLatency.
	ReqLatency    Histogram
	CommitLatency Histogram
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// serverAborts sums the server-initiated top-level aborts.
func (m *Metrics) serverAborts() int64 {
	return m.LockTimeouts.Load() + m.DeadlockAborts.Load() + m.DrainAborts.Load() + m.RestartAborts.Load()
}

// Snapshot renders every counter (plus the live SG gauges, when a certifier
// is attached) as a flat map, the shape served by the HTTP endpoint and
// published through expvar by cmd/nestedsgd.
func (s *Server) MetricsSnapshot() map[string]any {
	m := s.metrics
	elapsed := time.Since(m.start).Seconds()
	wm, acyclic := s.cert.state()
	sgParents, sgNodes, sgEdges := s.cert.gauges()
	logLen := s.log.len()
	snap := map[string]any{
		"uptime_seconds":    elapsed,
		"sessions":          m.Sessions.Load(),
		"requests":          m.Requests.Load(),
		"begins":            m.Begins.Load(),
		"top_commits":       m.TopCommits.Load(),
		"accesses":          m.Accesses.Load(),
		"blocked_polls":     m.BlockedPolls.Load(),
		"client_aborts":     m.ClientAborts.Load(),
		"lock_timeouts":     m.LockTimeouts.Load(),
		"deadlock_aborts":   m.DeadlockAborts.Load(),
		"restart_aborts":    m.RestartAborts.Load(),
		"drain_aborts":      m.DrainAborts.Load(),
		"backend":           s.backend,
		"retries":           m.Retries.Load(),
		"uncertified":       m.Uncertified.Load(),
		"wal_failures":      m.WALFailures.Load(),
		"commit_events":     m.CommitEvents.Load(),
		"abort_events":      m.AbortEvents.Load(),
		"log_events":        logLen,
		"certified":         wm,
		"sg_acyclic":        acyclic,
		"sg_parents":        sgParents,
		"sg_nodes":          sgNodes,
		"sg_edges":          sgEdges,
		"req_p50_us":        s.metrics.ReqLatency.Quantile(0.50).Microseconds(),
		"req_p99_us":        s.metrics.ReqLatency.Quantile(0.99).Microseconds(),
		"commit_p50_us":     s.metrics.CommitLatency.Quantile(0.50).Microseconds(),
		"commit_p99_us":     s.metrics.CommitLatency.Quantile(0.99).Microseconds(),
		"wal_sync_requests": m.WALSyncRequests.Load(),
		"wal_syncs":         m.WALSyncs.Load(),
		"accept_retries":    m.AcceptRetries.Load(),
		"group_size_p50":    m.GroupSize.QuantileVal(0.50),
		"group_size_p99":    m.GroupSize.QuantileVal(0.99),
		"group_size_mean":   m.GroupSize.MeanVal(),
	}
	if st := s.cert.snap; st != nil {
		snap["mvto_snapshot_reads"] = st.reads.Load()
		snap["mvto_ro_begins"] = st.roTx.Load()
	}
	if req := m.WALSyncRequests.Load(); req > 0 {
		snap["wal_syncs_per_request"] = float64(m.WALSyncs.Load()) / float64(req)
	}
	if elapsed > 0 {
		snap["accesses_per_second"] = float64(m.Accesses.Load()) / elapsed
		snap["commits_per_second"] = float64(m.TopCommits.Load()) / elapsed
	}
	return snap
}

// MetricsHandler serves the metrics snapshot as JSON — the body of the
// -metrics endpoint of cmd/nestedsgd.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding a just-built map of scalars cannot fail; the checked
		// encode keeps the error path honest anyway.
		if err := enc.Encode(s.MetricsSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Metrics exposes the counter struct (for tests and expvar publishing).
func (s *Server) Metrics() *Metrics { return s.metrics }
