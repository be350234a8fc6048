package server

// GroupArrived reports how many callers have entered the WAL writer's sync
// since boot. Test-only observability: the group-commit tests gate the
// first fsync and need to know when the whole cohort has arrived before
// releasing it, so the coalescing assertion is deterministic instead of
// timing-dependent.
func (s *Server) GroupArrived() uint64 {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.arrived
}

// WALSync runs the sync a top-level completion runs.
func (s *Server) WALSync() error { return s.walSync() }

// UnderStaging replaces the os file beneath a DirDisk segment's staging
// buffer with wrap(file), so a test can count (or hold) the write(2)s and
// fsyncs that actually reach the file rather than the appends the WAL
// writer makes.
func UnderStaging(f SegmentFile, wrap func(SegmentFile) SegmentFile) {
	df := f.(*dirFile)
	df.f = wrap(df.f)
}
