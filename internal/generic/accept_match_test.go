package generic_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/generic"
	"nestedsg/internal/locking"
	"nestedsg/internal/object"
	"nestedsg/internal/server"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
	"nestedsg/internal/workload"
)

// TestAcceptorMatchesReference drives the Acceptor and RefAcceptor, the
// one it replaced, in lockstep over the runner's behaviors (both
// protocols, with and without orphans) and the logs recovery makes of the
// FuzzRecoveryReplay corpus, durable prefix and stitched log both. Each
// behavior is also fed with one event dropped and with two neighbours
// swapped, at a few seeded positions, so that the two refuse too. At every
// event they must give the same verdict, the same error text and the same
// completion, and at the end the same completion for every name.
func TestAcceptorMatchesReference(t *testing.T) {
	type behavior struct {
		name string
		tr   *tname.Tree
		b    event.Behavior
		p    object.Protocol
	}
	var bs []behavior
	for _, p := range []object.Protocol{locking.Protocol{}, undolog.Protocol{}} {
		for seed := int64(0); seed < 8; seed++ {
			for _, orphans := range []bool{false, true} {
				tr := tname.NewTree()
				root := workload.Build(tr, workload.Config{Seed: seed, TopLevel: 6, Depth: 2, Fanout: 3,
					Objects: 2, HotProb: 0.6, ParProb: 0.8, ReadRatio: 0.4})
				b, _, err := generic.Run(tr, root, generic.Options{Seed: seed, Protocol: p, AbortProb: 0.05,
					MaxAborts: 3, AllowOrphans: orphans})
				if err != nil {
					t.Fatal(err)
				}
				bs = append(bs, behavior{p.Name() + "/" + strconv.FormatInt(seed, 10) + "/orphans=" + strconv.FormatBool(orphans), tr, b, p})
			}
		}
	}
	dir := filepath.Join("..", "server", "testdata", "fuzz", "FuzzRecoveryReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, e := range entries {
		disk := server.NewMemDisk()
		disk.SetSegment("wal-00000001.seg", readSeed(t, filepath.Join(dir, e.Name())))
		s, rep, err := server.Recover(server.Options{WAL: disk})
		if err != nil {
			continue
		}
		recovered++
		b := s.Log()
		s.Kill()
		bs = append(bs,
			behavior{e.Name() + "/durable", s.Tree(), b[:rep.DurableEvents], locking.Protocol{}},
			behavior{e.Name() + "/stitched", s.Tree(), b, locking.Protocol{}})
	}
	if recovered == 0 {
		t.Fatal("no seed of the recovery corpus recovers")
	}

	refused := 0
	for _, bh := range bs {
		if i := lockstep(t, bh.name, bh.tr, bh.b, bh.p); i >= 0 {
			t.Fatalf("%s: refused at event %d", bh.name, i)
		}
		rng := rand.New(rand.NewSource(int64(len(bh.b))))
		for range min(8, len(bh.b)-1) {
			k := rng.Intn(len(bh.b) - 1)
			dropped := append(append(event.Behavior{}, bh.b[:k]...), bh.b[k+1:]...)
			swapped := append(event.Behavior{}, bh.b...)
			swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
			for _, v := range []event.Behavior{dropped, swapped} {
				if lockstep(t, bh.name, bh.tr, v, bh.p) >= 0 {
					refused++
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no variant was refused: the lockstep compared no refusal")
	}
}

// lockstep steps an Acceptor and a RefAcceptor over fresh automata of p
// through b and fails t at the first difference. It returns the index of
// the event both refuse, or -1 if both accept b.
func lockstep(t *testing.T, name string, tr *tname.Tree, b event.Behavior, p object.Protocol) int {
	t.Helper()
	fresh := func() []object.Generic {
		objs := make([]object.Generic, tr.NumObjects())
		for x := range objs {
			objs[x] = p.New(tr, tname.ObjID(x))
		}
		return objs
	}
	a, ref := generic.NewAcceptor(tr, fresh()), generic.NewRefAcceptor(tr, fresh())
	for i, e := range b {
		err, want := a.Step(i, e), ref.Step(i, e)
		if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Fatalf("%s: event %d: the acceptor says %v, the reference %v", name, i, err, want)
		}
		if err != nil {
			return i
		}
		if got, want := a.Completion(e.Tx), ref.Completion(e.Tx); got != want {
			t.Fatalf("%s: event %d: completion of %s is %v, the reference's %v", name, i, tr.Name(e.Tx), got, want)
		}
	}
	for u := range tname.TxID(tr.NumTx()) {
		if got, want := a.Completion(u), ref.Completion(u); got != want {
			t.Fatalf("%s: at the end, completion of %s is %v, the reference's %v", name, tr.Name(u), got, want)
		}
	}
	return -1
}

// readSeed reads the []byte of a committed fuzz seed file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
