package server

import (
	"fmt"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/part"
)

// partCertifier is the certBackend over internal/part: P partition
// workers stream the log through their own incremental checkers
// and exchange SG edges (as wire.EdgeBatch payloads) with a composer
// whose watermark gates commit acks. Engaged by Options.CertPartitions
// > 1; the composed certificate stays byte-identical to the single
// certifier's, which Final() and the recovery audit both verify.
//
// Lock order: part.Certifier.mu, then Server.mu (read) — the same
// "certifier mutex, then tree lock" order the single certifier uses,
// established by passing s.mu.RLocker() as the part.Config.Lock.
type partCertifier struct {
	srv *Server
	pc  *part.Certifier

	// lag holds the per-partition compose-lag histograms (how far a
	// partition's delivered bound ran ahead of the composed watermark,
	// in events); fed by the composer, read by metricsInto.
	lag []Histogram
}

//sgvet:ignore[lockguard] construction: runs inside newServer before the server is shared with any goroutine
func newPartCertifier(s *Server, parts int) *partCertifier {
	c := &partCertifier{srv: s, lag: make([]Histogram, parts)}
	c.pc = part.New(part.Config{
		Partitions: parts,
		Tree:       s.tr,
		Lock:       s.mu.RLocker(),
		Source:     s.log.waitBeyond,
		Hooks:      s.opts.Hooks,
		ObserveLag: func(p, lag int) { c.lag[p].ObserveVal(int64(lag)) },
	})
	return c
}

//sgvet:ignore[lockguard] recovery is single-threaded: no session or certifier goroutine exists yet
func (c *partCertifier) prime(full event.Behavior) error {
	c.pc.Prime(full)
	if !c.pc.Cyclic() {
		return nil
	}
	// The composed refusal frontier is conservative (the last watermark
	// published while acyclic), unlike the single certifier's exact
	// violating index; the rejection itself is identical.
	msg := "no cycle certificate"
	if cyc := c.pc.CycleCertificate(); cyc != nil {
		msg = cyc.Format(c.srv.tr)
	}
	return fmt.Errorf("server: recovery rejected wal: SG(β) cyclic at durable event %d: %s",
		c.pc.CycleBound(), msg)
}

func (c *partCertifier) start()    { c.pc.Start() }
func (c *partCertifier) waitDone() { c.pc.WaitDrained() }

func (c *partCertifier) waitCertified(seq int) error {
	if c.pc.WaitCertified(seq) {
		return nil
	}
	// Extract the certificate before touching the tree lock: the
	// snapshot freeze only takes the composer's mutex, and rendering
	// names is the only tree read.
	at := c.pc.CycleBound()
	msg := "no cycle certificate"
	if cyc := c.pc.CycleCertificate(); cyc != nil {
		c.srv.mu.RLock()
		msg = cyc.Format(c.srv.tr)
		c.srv.mu.RUnlock()
	}
	return fmt.Errorf("server: SG(β) acquired a cycle at log event %d: %s", at, msg)
}

func (c *partCertifier) state() (int, bool) { return c.pc.State() }

func (c *partCertifier) gauges() (int64, int64, int64) {
	p, n, e := c.pc.Counts()
	return int64(p), int64(n), int64(e)
}

func (c *partCertifier) snapshotSG() *core.SG { return c.pc.Snapshot() }

func (c *partCertifier) metricsInto(snap map[string]any) {
	stats := c.pc.PartStats()
	snap["cert_partitions"] = len(stats)
	for i, st := range stats {
		snap[fmt.Sprintf("cert_part_events_%d", i)] = st.EventsApplied
		snap[fmt.Sprintf("cert_part_edges_%d", i)] = st.EdgesDelivered
		snap[fmt.Sprintf("cert_part_cross_edges_%d", i)] = st.CrossEdges
		h := &c.lag[i]
		snap[fmt.Sprintf("compose_lag_p50_%d", i)] = h.QuantileVal(0.50)
		snap[fmt.Sprintf("compose_lag_p99_%d", i)] = h.QuantileVal(0.99)
		snap[fmt.Sprintf("compose_lag_mean_%d", i)] = h.MeanVal()
	}
}
