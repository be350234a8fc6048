// Package part certifies a finished behavior β by splitting SG(β) across P
// partitions of the object space and composing their edge sets. It is an
// offline measurement, not a server engine: the server certifies its log
// with one core.Incremental, and this package survives only because the
// repository's benchmark (bench/layers.go) still times Prime at P = 1 and
// P = 4 against that engine. It goes when the benchmark stops reading it.
//
// Each object is owned by exactly one partition (a deterministic hash of
// its label, see Owner), and each partition runs its own core.Incremental
// over a filtered view of β:
//
//   - the REQUEST_COMMIT of an access is applied only by the partition
//     that owns the accessed object;
//   - every other event — creations, commits, aborts, reports — is
//     applied by all partitions.
//
// The union of the partitions' edge sets is exactly edges(SG(β)). Conflict
// edges relate two accesses of the same object, so the owner derives every
// conflict edge of its objects and no other partition derives any; the
// owner sees all of an object's operations and every COMMIT in log order,
// so it admits them in the order a single engine would and stores the same
// generating set (core.conflictFrontier). Precedes edges depend only on the
// structural events, which every partition sees, so each partition derives
// the same precedes edges (core.frontier) and the composer dedups the
// copies. "Deciding Serializability in Network Systems" (PAPERS.md) is the
// template.
//
// The composer (core.Composer) absorbs each partition's edge records in
// place. Because the canonical freeze makes SG a pure function of its edge
// set, the order of absorption does not matter and Snapshot is
// byte-identical to a batch core.Build over β; the package's differential
// tests and FuzzPartitionedCertificate hold it to that.
package part

// Owner maps an object label to its owning partition in [0, parts). The
// map is a pure function of the label bytes (FNV-1a), independent of
// interning order and of any previous run.
//
//sgvet:hotpath
func Owner(label string, parts int) int {
	if parts <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(label); i++ {
		h ^= uint32(label[i])
		h *= prime32
	}
	return int(h % uint32(parts))
}
