package server

// GroupArrived reports how many committers have entered the group
// committer since boot. Test-only observability: the group-commit tests
// gate the leader's fsync and need to know when the whole cohort has
// arrived before releasing it, so the coalescing assertion is
// deterministic instead of timing-dependent.
func (s *Server) GroupArrived() uint64 {
	s.group.mu.Lock()
	defer s.group.mu.Unlock()
	return s.group.arrived
}

// UnderStaging replaces the os file beneath a DirDisk segment's staging
// buffer with wrap(file), so a test can count (or hold) the write(2)s and
// fsyncs that actually reach the file rather than the appends the WAL
// writer makes.
func UnderStaging(f SegmentFile, wrap func(SegmentFile) SegmentFile) {
	df := f.(*dirFile)
	df.f = wrap(df.f)
}
