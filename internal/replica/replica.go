// Package replica implements a quorum-replicated read/write object in the
// lineage the paper cites as [6] (Goldman & Lynch, replicated data
// management for nested transactions): the logical object is stored as N
// copies with version numbers; reads collect a read quorum of R copies and
// take the highest version, writes install a new version into a write
// quorum of W copies, and R + W > N guarantees every read quorum
// intersects every write quorum.
//
// Concurrency control and recovery reuse Moss' discipline (§5): accesses
// take read/write locks on the *logical* object, tentative values live on
// the write-lock chain and are discarded when an ancestor aborts; the new
// version is installed into the copies only when the lock chain returns to
// T0 — i.e. when the writing transaction has committed to the top level.
// Copies may be transiently unavailable (a seeded failure process); an
// access that cannot assemble a quorum simply waits and retries.
//
// Compared to [6] this folds the copies inside one generic object rather
// than modeling each copy as a separate object accessed by
// subtransactions; the quorum/version arithmetic and the interaction with
// nested commit/abort are the parts exercised here, and the same
// serialization-graph checker certifies the runs (experiment E14).
package replica

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// Counters aggregates quorum traffic across every object that shares the
// instance. The fields are atomics because the server drives different
// objects under different mutexes; all other Replicated state is guarded by
// the caller's per-object serialization.
type Counters struct {
	QuorumReads  atomic.Int64
	QuorumWrites atomic.Int64
}

// Config sets the replication parameters.
type Config struct {
	// Copies is N, ReadQuorum is R, WriteQuorum is W; R + W must exceed N.
	Copies, ReadQuorum, WriteQuorum int
	// UnavailableProb is the per-attempt probability that a copy does not
	// respond. Quorum assembly retries on later scheduler polls.
	UnavailableProb float64
	// Seed drives the availability process.
	Seed int64
	// Counters, when non-nil, receives one increment per assembled read or
	// write quorum (shared across objects; the server's metrics hook).
	Counters *Counters
}

// Validate checks the quorum arithmetic.
func (c Config) Validate() error {
	if c.Copies <= 0 || c.ReadQuorum <= 0 || c.WriteQuorum <= 0 {
		return fmt.Errorf("replica: quorums must be positive")
	}
	if c.ReadQuorum > c.Copies || c.WriteQuorum > c.Copies {
		return fmt.Errorf("replica: quorum larger than copy count")
	}
	if c.ReadQuorum+c.WriteQuorum <= c.Copies {
		return fmt.Errorf("replica: R+W must exceed N (%d+%d vs %d)",
			c.ReadQuorum, c.WriteQuorum, c.Copies)
	}
	return nil
}

// chainEntry is a tentative (value, version) pair held on the lock chain.
type chainEntry struct {
	val     spec.Value
	version int64
}

// Replicated is the quorum-replicated generic object.
type Replicated struct {
	tr  *tname.Tree
	x   tname.ObjID
	cfg Config
	rng *rand.Rand

	// copies hold the installed (committed-to-T0) state.
	copyVals []spec.Value
	copyVers []int64

	created         map[tname.TxID]bool
	commitRequested map[tname.TxID]bool
	readLockholders map[tname.TxID]bool
	// writeLockholders is the Moss chain; T0's entry is implicit (the
	// installed copies).
	writeLockholders map[tname.TxID]chainEntry

	// stats for the experiment harness.
	QuorumFailures int
	Installs       int
}

// New builds the replicated object for register x.
func New(tr *tname.Tree, x tname.ObjID, cfg Config) *Replicated {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if tr.Spec(x).Name() != (spec.Register{}).Name() {
		panic(fmt.Sprintf("replica: object %s is %s; only read/write objects are supported",
			tr.ObjectLabel(x), tr.Spec(x).Name()))
	}
	init := tr.Spec(x).Init().(spec.Value)
	r := &Replicated{
		tr:  tr,
		x:   x,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ int64(x)<<16)),

		copyVals:         make([]spec.Value, cfg.Copies),
		copyVers:         make([]int64, cfg.Copies),
		created:          make(map[tname.TxID]bool),
		commitRequested:  make(map[tname.TxID]bool),
		readLockholders:  make(map[tname.TxID]bool),
		writeLockholders: make(map[tname.TxID]chainEntry),
	}
	for i := range r.copyVals {
		r.copyVals[i] = init
	}
	return r
}

// availableCopies rolls the failure process and returns the indices of
// responding copies, shuffled.
func (r *Replicated) availableCopies() []int {
	var up []int
	for i := 0; i < r.cfg.Copies; i++ {
		if r.cfg.UnavailableProb <= 0 || r.rng.Float64() >= r.cfg.UnavailableProb {
			up = append(up, i)
		}
	}
	r.rng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
	return up
}

// quorumRead assembles a read quorum and returns the highest-version state,
// or ok=false if too few copies responded.
func (r *Replicated) quorumRead() (spec.Value, int64, bool) {
	up := r.availableCopies()
	if len(up) < r.cfg.ReadQuorum {
		r.QuorumFailures++
		return spec.Nil, 0, false
	}
	q := up[:r.cfg.ReadQuorum]
	bestI := q[0]
	for _, i := range q[1:] {
		if r.copyVers[i] > r.copyVers[bestI] {
			bestI = i
		}
	}
	if r.cfg.Counters != nil {
		r.cfg.Counters.QuorumReads.Add(1)
	}
	return r.copyVals[bestI], r.copyVers[bestI], true
}

// install writes (val, version) into a write quorum; retried until a
// quorum responds (the inform is only processed once a quorum is found, so
// install loops on the failure process — with UnavailableProb < 1 this
// terminates with probability 1, and determinism is preserved because the
// rng is seeded).
func (r *Replicated) install(val spec.Value, version int64) {
	for {
		up := r.availableCopies()
		if len(up) < r.cfg.WriteQuorum {
			r.QuorumFailures++
			continue
		}
		for _, i := range up[:r.cfg.WriteQuorum] {
			r.copyVals[i] = val
			r.copyVers[i] = version
		}
		r.Installs++
		if r.cfg.Counters != nil {
			r.cfg.Counters.QuorumWrites.Add(1)
		}
		return
	}
}

// chainState returns the state visible to a descendant of the whole chain:
// the least (deepest) holder's entry, or a quorum read when only T0 holds.
func (r *Replicated) least() (tname.TxID, bool) {
	var best tname.TxID = tname.None
	bestDepth := -1
	for u := range r.writeLockholders {
		if d := r.tr.Depth(u); d > bestDepth {
			best, bestDepth = u, d
		}
	}
	return best, best != tname.None
}

// Create implements object.Generic.
func (r *Replicated) Create(t tname.TxID) { r.created[t] = true }

// InformCommit implements object.Generic: locks pass to the parent; a
// write-lock entry reaching T0 is installed into a write quorum.
func (r *Replicated) InformCommit(t tname.TxID) {
	if t == tname.Root {
		return
	}
	p := r.tr.Parent(t)
	if e, ok := r.writeLockholders[t]; ok {
		delete(r.writeLockholders, t)
		if p == tname.Root {
			r.install(e.val, e.version)
		} else {
			r.writeLockholders[p] = e
		}
	}
	if r.readLockholders[t] {
		delete(r.readLockholders, t)
		if p != tname.Root {
			r.readLockholders[p] = true
		}
	}
}

// InformAbort implements object.Generic: descendants' locks (and their
// tentative values) are discarded; the copies never saw them.
func (r *Replicated) InformAbort(t tname.TxID) {
	for u := range r.writeLockholders {
		if r.tr.IsDescendant(u, t) {
			delete(r.writeLockholders, u)
		}
	}
	for u := range r.readLockholders {
		if r.tr.IsDescendant(u, t) {
			delete(r.readLockholders, u)
		}
	}
}

// TryRequestCommit implements object.Generic.
func (r *Replicated) TryRequestCommit(t tname.TxID) (spec.Value, bool) {
	if !r.created[t] || r.commitRequested[t] {
		return spec.Nil, false
	}
	op := r.tr.AccessOp(t)
	// Lock admission exactly as Moss.
	for u := range r.writeLockholders {
		if !r.tr.IsAncestor(u, t) {
			return spec.Nil, false
		}
	}
	if spec.IsWrite(op) {
		for u := range r.readLockholders {
			if !r.tr.IsAncestor(u, t) {
				return spec.Nil, false
			}
		}
	}
	// Current state: the deepest chain entry, else a quorum read.
	var (
		cur     spec.Value
		curVer  int64
		haveCur bool
	)
	if least, ok := r.least(); ok {
		e := r.writeLockholders[least]
		cur, curVer, haveCur = e.val, e.version, true
	} else {
		cur, curVer, haveCur = r.quorumRead()
	}
	if !haveCur {
		return spec.Nil, false // no quorum this attempt; retry later
	}
	if spec.IsRead(op) {
		r.commitRequested[t] = true
		r.readLockholders[t] = true
		return cur, true
	}
	r.commitRequested[t] = true
	r.writeLockholders[t] = chainEntry{val: op.Arg, version: curVer + 1}
	return spec.OK, true
}

// Blockers implements object.Generic (lock conflicts only; quorum
// unavailability is transient and resolves by itself).
func (r *Replicated) Blockers(ts []tname.TxID, out []tname.TxID) []tname.TxID {
	for _, t := range ts {
		if !r.created[t] || r.commitRequested[t] {
			continue
		}
		for u := range r.writeLockholders {
			if !r.tr.IsAncestor(u, t) {
				out = append(out, u)
			}
		}
		if spec.IsWrite(r.tr.AccessOp(t)) {
			for u := range r.readLockholders {
				if !r.tr.IsAncestor(u, t) {
					out = append(out, u)
				}
			}
		}
	}
	return out
}

// Blocked implements object.Generic. It names no witness, so the runner
// asks a replicated object's waiters again after every call into it. It
// returns at the first lockholder Blockers would list.
func (r *Replicated) Blocked(t tname.TxID) (tname.TxID, bool) {
	if !r.created[t] || r.commitRequested[t] {
		return tname.None, false
	}
	for u := range r.writeLockholders {
		if !r.tr.IsAncestor(u, t) {
			return tname.None, true
		}
	}
	if spec.IsWrite(r.tr.AccessOp(t)) {
		for u := range r.readLockholders {
			if !r.tr.IsAncestor(u, t) {
				return tname.None, true
			}
		}
	}
	return tname.None, false
}

// Audit implements object.Auditor: the quorum-intersection invariant — the
// highest installed version is present on at least WriteQuorum copies, so
// every read quorum sees it; and the lock chain is totally ordered by
// ancestry.
func (r *Replicated) Audit() error {
	var maxVer int64
	for _, v := range r.copyVers {
		if v > maxVer {
			maxVer = v
		}
	}
	if maxVer > 0 {
		n := 0
		for _, v := range r.copyVers {
			if v == maxVer {
				n++
			}
		}
		if n < r.cfg.WriteQuorum {
			return fmt.Errorf("replica: latest version %d on %d copies, want ≥ %d", maxVer, n, r.cfg.WriteQuorum)
		}
	}
	for u := range r.writeLockholders {
		for w := range r.writeLockholders {
			if !r.tr.IsOrdered(u, w) {
				return fmt.Errorf("replica: write chain broken: %s vs %s", r.tr.Name(u), r.tr.Name(w))
			}
		}
		for w := range r.readLockholders {
			if !r.tr.IsOrdered(u, w) {
				return fmt.Errorf("replica: writer %s unrelated to reader %s", r.tr.Name(u), r.tr.Name(w))
			}
		}
	}
	return nil
}

// Copies exposes (value, version) pairs for tests.
func (r *Replicated) Copies() ([]spec.Value, []int64) {
	vals := append([]spec.Value(nil), r.copyVals...)
	vers := append([]int64(nil), r.copyVers...)
	return vals, vers
}

// Protocol implements object.Protocol.
type Protocol struct {
	Cfg Config
}

// Name implements object.Protocol.
func (p Protocol) Name() string {
	return fmt.Sprintf("replica-n%d-r%d-w%d", p.Cfg.Copies, p.Cfg.ReadQuorum, p.Cfg.WriteQuorum)
}

// New implements object.Protocol.
func (p Protocol) New(tr *tname.Tree, x tname.ObjID) object.Generic {
	return New(tr, x, p.Cfg)
}
