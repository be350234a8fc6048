// Package part partitions SG(β) certification across P independent
// certifier partitions and composes their verdicts into the global one.
//
// The paper defines the serialization graph over one total-order event
// log, and internal/core certifies that log with one streaming checker.
// This package splits the *object space* instead: each object is owned by
// exactly one partition (a deterministic hash of its label, see Owner),
// and each partition runs its own core.Incremental over a filtered view
// of the shared log:
//
//   - the REQUEST_COMMIT of an access is applied only by the partition
//     that owns the accessed object;
//   - every other event — creations, commits, aborts, reports — is
//     applied by all partitions.
//
// The split is chosen so the union of the partitions' edge sets is
// exactly edges(SG(β)). Conflict edges relate two accesses of the same
// object, so the owner derives every conflict edge of its objects and no
// other partition derives any; the per-object conflict scan is therefore
// partitioned, and because the owner sees all of an object's operations and
// every COMMIT in log order, it admits them in the order a single engine
// would and stores the same generating set (core.conflictFrontier).
// Precedes edges and the visibility relation depend only on the structural
// events, which every partition sees, so each partition derives the same
// precedes edges — the generating set core.frontier selects, identical in
// every core.Incremental — (the composer dedups the copies) and parks/admits
// accesses with exactly the global visibility. "Deciding Serializability in
// Network Systems" (PAPERS.md) is the template: per-node graphs certify
// locally and compose into the global verdict when the nodes exchange the
// edges that cross them.
//
// Partitions export their edges through the versioned wire.EdgeBatch
// codec — every flush round-trips through the encoder even though this
// build composes in-process, so a multi-process split changes the
// transport, not the protocol. The composer (core.Composer) unions the
// batches; because the canonical freeze makes SG a pure function of its
// edge set, the composed certificate is byte-identical to a batch
// core.Check over the log, which Final() and the recovery audit
// verify.
//
// Soundness of commit acknowledgement: a batch carries the exclusive
// event bound UpTo its partition has applied, delivered atomically with
// (never before) the edges derived from those events. The composer's
// watermark is min over partitions of UpTo, so the composed graph always
// contains every edge of SG(β[:watermark]) — it is a superset, since fast
// partitions run ahead. Edges are monotone over prefixes (see
// core.Incremental), so if the superset is acyclic, every covered prefix
// is acyclic, and a COMMIT at log position seq may be acknowledged as
// soon as watermark > seq.
package part

// Owner maps an object label to its owning partition in [0, parts). The
// map is a pure function of the label bytes (FNV-1a) — independent of
// interning order, of the partition a request arrived on, and of any
// previous run — so every process, recovery, and replay agrees on it.
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
