package part_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/part"
	"nestedsg/internal/tname"
	"nestedsg/internal/workload"
)

// protocolBehavior runs a locking workload and returns its event trace —
// a well-formed, certifiable behavior.
func protocolBehavior(t testing.TB, wseed, rseed int64) (*tname.Tree, event.Behavior) {
	t.Helper()
	tr := tname.NewTree()
	root := workload.Build(tr, workload.Config{Seed: wseed, TopLevel: 6, Depth: 2,
		Fanout: 3, Objects: 4, ParProb: 0.6})
	b, _, err := generic.Run(tr, root, generic.Options{Seed: rseed, Protocol: locking.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	return tr, b
}

func TestOwnerDeterministicAndTotal(t *testing.T) {
	labels := []string{"", "x", "y", "account-17", "registera", "counterc", "setb"}
	for _, l := range labels {
		if got := part.Owner(l, 1); got != 0 {
			t.Fatalf("Owner(%q, 1) = %d", l, got)
		}
		for _, p := range []int{2, 4, 8} {
			a, b := part.Owner(l, p), part.Owner(l, p)
			if a != b {
				t.Fatalf("Owner(%q, %d) unstable: %d vs %d", l, p, a, b)
			}
			if a < 0 || a >= p {
				t.Fatalf("Owner(%q, %d) = %d out of range", l, p, a)
			}
		}
	}
	// The map must actually spread: over many labels every partition of 4
	// owns something.
	hit := make([]bool, 4)
	for i := 0; i < 64; i++ {
		hit[part.Owner(fmt.Sprintf("obj-%d", i), 4)] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("partition %d owns none of 64 labels — degenerate map", i)
		}
	}
}

// verifyDifferential is the core acceptance check: for each P the primed
// composed certificate must match the batch construction byte-for-byte,
// with agreeing acyclicity verdicts.
func verifyDifferential(t testing.TB, tr *tname.Tree, b event.Behavior, ps ...int) {
	t.Helper()
	if len(ps) == 0 {
		ps = []int{1, 2, 4}
	}
	want := core.Build(tr, b)
	wantDOT := want.DOT()
	_, wantCyc := want.Acyclicity()
	for _, p := range ps {
		c := part.New(part.Config{Partitions: p, Tree: tr})
		c.Prime(b)
		if got := c.Snapshot().DOT(); got != wantDOT {
			t.Fatalf("P=%d: composed certificate diverges from batch Build:\n--- composed ---\n%s\n--- batch ---\n%s",
				p, got, wantDOT)
		}
		if c.Cyclic() != (wantCyc != nil) {
			t.Fatalf("P=%d: composed cyclic=%v, batch cyclic=%v", p, c.Cyclic(), wantCyc != nil)
		}
		if w, _ := c.State(); w != len(b) {
			t.Fatalf("P=%d: primed watermark %d, want %d", p, w, len(b))
		}
		stats := c.PartStats()
		var cross int64
		for _, st := range stats {
			cross += st.CrossEdges
			if st.Bound != len(b) {
				t.Fatalf("P=%d: partition bound %d, want %d", p, st.Bound, len(b))
			}
		}
		if p == 1 && cross != 0 {
			t.Fatalf("P=1 reported %d cross-partition edges", cross)
		}
	}
}

func TestPartitionedMatchesBatchOnProtocolTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr, b := protocolBehavior(t, seed, seed*7+1)
		verifyDifferential(t, tr, b, 1, 2, 4, 8)
	}
}

func TestPartitionedMatchesBatchOnRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 30; i++ {
		tr, names := randomSystem(rng)
		b := randomEvents(rng, tr, names, 25+rng.Intn(50))
		verifyDifferential(t, tr, b)
	}
}

// TestCrossEdgesAppearAtP4: with several objects spread over 4
// partitions, the precedes relation is derived independently by every
// partition, so the composer must observe cross-partition duplicates —
// the exchange overlap the protocol ships.
func TestCrossEdgesAppearAtP4(t *testing.T) {
	var total int64
	for seed := int64(0); seed < 8; seed++ {
		tr, b := protocolBehavior(t, seed, seed+100)
		c := part.New(part.Config{Partitions: 4, Tree: tr})
		c.Prime(b)
		for _, st := range c.PartStats() {
			total += st.CrossEdges
		}
	}
	if total == 0 {
		t.Fatal("no cross-partition edges over 8 workloads at P=4 — the exchange is never exercised")
	}
}

// TestResetReplays: Reset + Prime over the same tree reproduces the same
// certificate.
func TestResetReplays(t *testing.T) {
	tr, b := protocolBehavior(t, 3, 5)
	c := part.New(part.Config{Partitions: 4, Tree: tr})
	c.Prime(b)
	first := c.Snapshot().DOT()
	c.Reset()
	if p, n, e := c.Counts(); p != 0 || n != 0 || e != 0 {
		t.Fatalf("reset left %d parents %d nodes %d edges", p, n, e)
	}
	c.Prime(b)
	if got := c.Snapshot().DOT(); got != first {
		t.Fatalf("post-reset certificate diverges:\n%s\n%s", got, first)
	}
}

// memSource adapts a growable in-memory log to the Config.Source
// contract.
type memSource struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events event.Behavior
	closed bool
}

func newMemSource() *memSource {
	s := &memSource{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *memSource) append(evs ...event.Event) {
	s.mu.Lock()
	s.events = append(s.events, evs...)
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *memSource) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *memSource) wait(n int, buf event.Behavior) (event.Behavior, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.events) <= n && !s.closed {
		s.cond.Wait()
	}
	if len(s.events) <= n {
		return nil, false
	}
	return append(buf[:0], s.events[n:]...), true
}

// TestCertifierLive: workers tailing a live source certify every prefix
// and drain on close with the batch-identical certificate.
func TestCertifierLive(t *testing.T) {
	tr, b := protocolBehavior(t, 9, 2)
	src := newMemSource()
	var treeMu sync.RWMutex
	c := part.New(part.Config{
		Partitions: 4,
		Tree:       tr,
		Lock:       treeMu.RLocker(),
		Source:     src.wait,
	})
	c.Start()
	for i, e := range b {
		src.append(e)
		if i == len(b)/2 {
			// Mid-stream commit wait: certification must catch up.
			if !c.WaitCertified(i) {
				t.Fatalf("acyclic prefix %d refused", i)
			}
		}
	}
	src.close()
	c.WaitDrained()
	if got, want := c.Snapshot().DOT(), core.Build(tr, b).DOT(); got != want {
		t.Fatalf("live certificate diverges from batch:\n%s\n%s", got, want)
	}
	if w, ac := c.State(); !ac || w <= len(b) {
		t.Fatalf("drained state (%d, %v), want watermark past %d and acyclic", w, ac, len(b))
	}
}

// stallHooks freezes one partition before it applies the event at bound,
// until released.
type stallHooks struct {
	part    int
	bound   int
	release chan struct{}
}

func (h *stallHooks) CertApply(p, index int) {
	if p == h.part && index >= h.bound {
		<-h.release
	}
}

func (h *stallHooks) CertBatch(p, index, max int) int {
	if p == h.part {
		if d := h.bound - index; d > 0 && d < max {
			return d
		}
	}
	return max
}

// TestCertifierPartitionStall: with one partition frozen at a bound, the
// watermark settles exactly there — commits before it certify, commits at
// or past it block until the release.
func TestCertifierPartitionStall(t *testing.T) {
	tr, b := protocolBehavior(t, 11, 4)
	bound := len(b) / 2
	hooks := &stallHooks{part: 1, bound: bound, release: make(chan struct{})}
	src := newMemSource()
	var treeMu sync.RWMutex
	c := part.New(part.Config{
		Partitions: 4,
		Tree:       tr,
		Lock:       treeMu.RLocker(),
		Source:     src.wait,
		Hooks:      hooks,
	})
	c.Start()
	src.append(b...)
	if !c.WaitCertified(bound - 1) {
		t.Fatalf("prefix %d refused", bound-1)
	}
	certified := make(chan bool)
	go func() { certified <- c.WaitCertified(bound) }()
	select {
	case <-certified:
		t.Fatal("commit at the stalled bound certified while the partition is frozen")
	default:
	}
	if w, _ := c.State(); w != bound {
		t.Fatalf("stalled watermark %d, want exactly %d", w, bound)
	}
	close(hooks.release)
	if ok := <-certified; !ok {
		t.Fatal("commit refused after release")
	}
	src.close()
	c.WaitDrained()
	if got, want := c.Snapshot().DOT(), core.Build(tr, b).DOT(); got != want {
		t.Fatalf("post-stall certificate diverges:\n%s\n%s", got, want)
	}
}
