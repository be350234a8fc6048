package main

import (
	"fmt"
	"math/rand"

	"nestedsg/internal/spec"
)

// Every transaction the server sees is drawn here, before any clock starts,
// from the run's seed alone: the server receives only the generated
// requests, and two runs with one seed send byte-identical request streams
// (up to the interleaving two concurrent clients produce).

const (
	accessesPerTx = 4    // accesses per transaction
	childProb     = 0.25 // probability an access runs inside a subtransaction
	maxAttempts   = 8    // RunTx / RunReadTx attempts
)

// access is one planned operation on a register object.
type access struct {
	obj   string
	op    spec.OpKind
	arg   spec.Value
	child bool // wrap in CHILD … COMMIT
}

// txPlan is one top-level transaction. An all-read plan runs through
// RunReadTx, exactly as cmd/nestedload routes it.
type txPlan struct {
	acc     [accessesPerTx]access
	allRead bool
}

// mix is the part of a workload the plan generator depends on.
type mix struct {
	objects   int     // register objects x0 … x{objects-1}
	zipf      float64 // > 1: zipf skew over the objects; otherwise uniform
	readRatio float64 // probability an access is a read
}

// objectLabels returns x0 … x{n-1}, the labels both the plans and
// server.Options.Objects use.
func objectLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("x%d", i)
	}
	return labels
}

// genPlans draws n transactions for one client. It is a pure function of
// its arguments.
func genPlans(seed int64, n int, m mix, labels []string) []txPlan {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if m.zipf > 1 && len(labels) > 1 {
		zipf = rand.NewZipf(rng, m.zipf, 1, uint64(len(labels)-1))
	}
	plans := make([]txPlan, n)
	for i := range plans {
		p := &plans[i]
		p.allRead = true
		for a := range p.acc {
			var obj string
			if zipf != nil {
				obj = labels[zipf.Uint64()]
			} else {
				obj = labels[rng.Intn(len(labels))]
			}
			acc := access{obj: obj, op: spec.OpRead, arg: spec.Nil}
			if rng.Float64() >= m.readRatio {
				acc.op, acc.arg = spec.OpWrite, spec.Int(int64(rng.Intn(100)))
				p.allRead = false
			}
			acc.child = rng.Float64() < childProb
			p.acc[a] = acc
		}
	}
	return plans
}

// deriveSeed mixes the run seed with a path of small integers (workload,
// segment, life, client …) through splitmix64, so neighbouring seeds and
// neighbouring paths give unrelated streams.
func deriveSeed(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += uint64(p) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}
