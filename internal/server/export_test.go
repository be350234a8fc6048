package server

// GroupArrived reports how many callers have entered the WAL writer's sync
// since boot. Test-only observability: the group-commit tests gate the
// first fsync and need to know when the whole cohort has arrived before
// releasing it, so the coalescing assertion is deterministic instead of
// timing-dependent.
func (s *Server) GroupArrived() uint64 { return s.wal.arrived.Load() }

// GroupPending reports how many sync callers have arrived since the last
// fsync began: the callers the next fsync will count as its cohort.
// Together with GroupSize it accounts for every arrival.
func (s *Server) GroupPending() uint64 {
	began := s.wal.began.Load() // first: began never passes arrived
	return s.wal.arrived.Load() - began
}

// WALSync runs the sync a top-level completion runs.
func (s *Server) WALSync() error { return s.walSync() }

// SettleRounds reports how many netpoll rounds the WAL's sync leaders have
// settled for since boot (walWriter.settle).
func (s *Server) SettleRounds() int64 { return s.wal.rounds.Load() }

// NewWithSnapshots is New with a snapshot store that the certifier feeds
// whatever the backend, so read-only BEGINs open snapshot transactions on
// it: how a test reads an object of a type other than mvto's register at a
// snapshot cut. The store's publication is spec-general; the locking
// backends are the ones whose commit order the soundness argument covers
// (THEORY.md, "Certified snapshots").
func NewWithSnapshots(opts Options) *Server {
	s := New(opts)
	s.cert.snap = newSnapshotStore(s)
	s.mu.RLock()
	for _, o := range s.objs {
		o.versions.Store(initVersion(o.sp))
	}
	s.mu.RUnlock()
	return s
}
