package server

import (
	"fmt"

	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/replica"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
)

// objectBackend is the seam between the server and its object layer: one
// concurrency-control/recovery algorithm guarding every shared object,
// selected by Options.Backend.
// The automaton calls themselves still flow through object.Generic under
// the per-object mutexes; the backend adds the pieces a protocol needs
// from the server — construction, restart verdicts for protocols that
// abort instead of blocking, an optional read-only snapshot engine (fed by
// the certifier), and metrics.
type objectBackend interface {
	// name identifies the backend ("moss", "undolog", "mvto", "replica" —
	// or the wrapped protocol's name when Options.Protocol was injected).
	name() string
	// protocol builds the generic object automata; resolveObject and
	// recovery's replayDefs construct every object through it.
	protocol() object.Protocol
	// restartReason is consulted after a failed grant poll, under the
	// object's mutex and the tree read lock. A non-empty reason means the
	// access can never be granted (e.g. an MVTO access that arrived too
	// late in timestamp order) and the session must abort its top-level
	// transaction — the classical restart — instead of parking.
	restartReason(g object.Generic, acc tname.TxID) string
	// snapshots returns the read-only snapshot engine, or nil when the
	// backend has none (read-only BEGINs then run as normal transactions).
	snapshots() *snapshotStore
	// metricsInto adds backend-specific keys to the metrics snapshot.
	metricsInto(snap map[string]any)
}

// aborterReason is the shared restartReason body: protocols whose objects
// implement object.Aborter get restart semantics, everything else blocks.
func aborterReason(g object.Generic, acc tname.TxID) string {
	if a, ok := g.(object.Aborter); ok && a.ShouldAbort(acc) {
		return "protocol restart: access arrived too late"
	}
	return ""
}

// protoBackend adapts a bare object.Protocol — the moss and undolog
// backends, and any protocol injected through Options.Protocol.
type protoBackend struct {
	p object.Protocol
}

func (b *protoBackend) name() string              { return b.p.Name() }
func (b *protoBackend) protocol() object.Protocol { return b.p }
func (b *protoBackend) restartReason(g object.Generic, acc tname.TxID) string {
	return aborterReason(g, acc)
}
func (b *protoBackend) snapshots() *snapshotStore  { return nil }
func (b *protoBackend) metricsInto(map[string]any) {}

// mvtoBackend runs strict-admission multiversion timestamp ordering plus
// the lock-free snapshot store that serves read-only transactions.
type mvtoBackend struct {
	p    *mvto.Protocol
	snap *snapshotStore
}

func (b *mvtoBackend) name() string              { return "mvto" }
func (b *mvtoBackend) protocol() object.Protocol { return b.p }
func (b *mvtoBackend) restartReason(g object.Generic, acc tname.TxID) string {
	return aborterReason(g, acc)
}
func (b *mvtoBackend) snapshots() *snapshotStore { return b.snap }
func (b *mvtoBackend) metricsInto(snap map[string]any) {
	snap["mvto_snapshot_reads"] = b.snap.reads.Load()
	snap["mvto_ro_begins"] = b.snap.roTx.Load()
}

// replicaBackend stores every object as K quorum-replicated copies. The
// availability process is pinned off (UnavailableProb 0): a live failed
// quorum poll would consume rng draws that leave no trace in the log, so
// recovery's one-replay-per-logged-grant could diverge from the run it is
// auditing. Quorum intersection (R+W>N) keeps logged read values
// replay-stable regardless of which copies each quorum drew.
type replicaBackend struct {
	proto replica.Protocol
	ctrs  *replica.Counters
}

func (b *replicaBackend) name() string              { return "replica" }
func (b *replicaBackend) protocol() object.Protocol { return b.proto }
func (b *replicaBackend) restartReason(g object.Generic, acc tname.TxID) string {
	return aborterReason(g, acc)
}
func (b *replicaBackend) snapshots() *snapshotStore { return nil }
func (b *replicaBackend) metricsInto(snap map[string]any) {
	snap["replica_copies"] = b.proto.Cfg.Copies
	snap["replica_quorum_reads"] = b.ctrs.QuorumReads.Load()
	snap["replica_quorum_writes"] = b.ctrs.QuorumWrites.Load()
}

// BackendNames lists the selectable Options.Backend values.
func BackendNames() []string { return []string{"moss", "undolog", "mvto", "replica"} }

// ValidateBackendOptions checks the backend-related fields of opts without
// building a server — the CLIs' pre-flight, so an unknown -backend name or
// bad quorum arithmetic is a clean error instead of a panic inside New.
func ValidateBackendOptions(opts Options) error {
	_, err := resolveBackend(opts.withDefaults(), tname.NewTree(), nil)
	return err
}

// resolveBackend builds the object backend newServer installs for s. The
// tree must already exist (the MVTO clock binds to it).
func resolveBackend(opts Options, tr *tname.Tree, s *Server) (objectBackend, error) {
	if opts.Backend != "" && opts.Protocol != nil {
		return nil, fmt.Errorf("server: Options.Backend %q and Options.Protocol %q are both set; pick one",
			opts.Backend, opts.Protocol.Name())
	}
	registerOnly := func(kind string) error {
		if opts.DefaultSpec.Name() != (spec.Register{}).Name() {
			return fmt.Errorf("server: backend %q supports only the register spec (DefaultSpec is %s)",
				kind, opts.DefaultSpec.Name())
		}
		return nil
	}
	switch opts.Backend {
	case "":
		p := opts.Protocol
		if p == nil {
			p = locking.Protocol{}
		}
		return &protoBackend{p: p}, nil
	case "moss":
		return &protoBackend{p: locking.Protocol{}}, nil
	case "undolog":
		return &protoBackend{p: undolog.Protocol{}}, nil
	case "mvto":
		if err := registerOnly("mvto"); err != nil {
			return nil, err
		}
		return &mvtoBackend{p: mvto.NewStrictProtocol(tr), snap: newSnapshotStore(s)}, nil
	case "replica":
		if err := registerOnly("replica"); err != nil {
			return nil, err
		}
		ctrs := &replica.Counters{}
		cfg := replica.Config{
			Copies:      opts.ReplicaCopies,
			ReadQuorum:  opts.ReplicaReadQuorum,
			WriteQuorum: opts.ReplicaWriteQuorum,
			Counters:    ctrs,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &replicaBackend{proto: replica.Protocol{Cfg: cfg}, ctrs: ctrs}, nil
	default:
		return nil, fmt.Errorf("server: unknown backend %q (have %v)", opts.Backend, BackendNames())
	}
}
