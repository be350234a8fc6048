package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"nestedsg/internal/sim"
)

// pinnedDigests holds, per backend and seed of the pinned matrix, the
// sha256 of the run's Summary(), Trace, CertDOT and every FinalDisk
// segment (name and bytes, in segment order). They were made before
// recovery decoded the WAL straight into the log's records, and every later
// change to recovery, the server or the sim must leave them as they are
// unless it means to change a run.
var pinnedDigests = map[string]string{
	"moss/1":     "5999ebb398e2f31407001e6aeafaa516cb7b80ee7001bdaf3f2415ff1274fb89",
	"moss/2":     "acf2f5f9e56de28d265ae837b1d1c6e1533ccbe7b0433b306ff1ff1ea81409c3",
	"moss/3":     "f74edff257ca5e01601af412a15290fe7cc7198a7288d3b4acec78273fa50a98",
	"moss/4":     "ef25d8f5f81883e73561022a848d85eace103a829ad5089dbd26f6dc1f2e9880",
	"moss/5":     "7862c26916cd1db892d1ceafe6b21c400868c10b4d5d1e83d70d1a598c50d5c3",
	"moss/6":     "886e17d22637e8414a866787afb3805b74b0bddfa31d5838014ad9b371f1d519",
	"moss/7":     "aaca3dcc883fdb1ae1c371a58c1ffb609e882560fe67ac128a069febde6ba375",
	"moss/8":     "2a1b64f86184ddcfbb2263d1e59d0c1dca833bfbcbaeebadddccef59a3820da8",
	"moss/9":     "354acbace4aa28427ef9627104e5fae4858b6f5574bd8f602310223a1b6f7c7f",
	"moss/10":    "79826884525c3afc4132786ecf14440a3e446941f7c54ac605fe8b311226ff9d",
	"moss/11":    "7563a62c78762450ea37cc2cbaa450bb0888a80469227f1d952af5f9ebb54615",
	"moss/12":    "54cd48d24cafcfa0f07b75674adfd4667929f8cb621f03318dfffc0c6299c59b",
	"undolog/1":  "5999ebb398e2f31407001e6aeafaa516cb7b80ee7001bdaf3f2415ff1274fb89",
	"undolog/2":  "acf2f5f9e56de28d265ae837b1d1c6e1533ccbe7b0433b306ff1ff1ea81409c3",
	"undolog/3":  "f74edff257ca5e01601af412a15290fe7cc7198a7288d3b4acec78273fa50a98",
	"undolog/4":  "ef25d8f5f81883e73561022a848d85eace103a829ad5089dbd26f6dc1f2e9880",
	"undolog/5":  "7862c26916cd1db892d1ceafe6b21c400868c10b4d5d1e83d70d1a598c50d5c3",
	"undolog/6":  "886e17d22637e8414a866787afb3805b74b0bddfa31d5838014ad9b371f1d519",
	"undolog/7":  "aaca3dcc883fdb1ae1c371a58c1ffb609e882560fe67ac128a069febde6ba375",
	"undolog/8":  "2a1b64f86184ddcfbb2263d1e59d0c1dca833bfbcbaeebadddccef59a3820da8",
	"undolog/9":  "354acbace4aa28427ef9627104e5fae4858b6f5574bd8f602310223a1b6f7c7f",
	"undolog/10": "79826884525c3afc4132786ecf14440a3e446941f7c54ac605fe8b311226ff9d",
	"undolog/11": "7563a62c78762450ea37cc2cbaa450bb0888a80469227f1d952af5f9ebb54615",
	"undolog/12": "54cd48d24cafcfa0f07b75674adfd4667929f8cb621f03318dfffc0c6299c59b",
	"mvto/1":     "62a5a2b531f06ee626717c65a59b941a0a1453253972efeb2f0d81acb8834d56",
	"mvto/2":     "ddf2d7820de077abf43a7bfbc90321e44a7304ad8bda8cb2845d09161c046933",
	"mvto/3":     "55af78674dbfa493e6339ee5406df95c4c03d2a9bef5f7061ea9ae5471d2f3dd",
	"mvto/4":     "9bfbfa713c22cbe109bfa0aa1e26aaade8f6a85b05597fd5dc274764990b1b46",
	"mvto/5":     "44870d821a3fb8c79621c49a2cd45650f0cf3823903f3ff7686f97c93ee3940a",
	"mvto/6":     "5a2fbf3de2eec4ee48282b07265e60d8c49b617ec7da725b561d4af97d33c232",
	"mvto/7":     "e6f6fd4990aafe7838f60e8454c0aa53013b360c1fae0df0222dd5f8a547f71e",
	"mvto/8":     "493d6f038f8e191c122dca1a0921689ed89a30b8d6a90262e836349efa17e488",
	"mvto/9":     "f5c1eef314e43a981b323e2c3e8ceecad3eb0d16d7301cc438a454b163af87e0",
	"mvto/10":    "0adf6f2b1bb17df3449d8ddea8b980cdeb5ae11cdee737c7ace2d9c9d6353db5",
	"mvto/11":    "bce962e000a2eaa22696e9e2fd0eeb83fd09df840d917306fab76f4592f511bd",
	"mvto/12":    "0600406815d59c974d3c8f0ab47fdd9c78545ae65931fd5df3d4abfa4e66aa4d",
}

// TestSimDigestsPinned runs the pinned matrix — moss, undolog and mvto ×
// seeds 1–12, every fault class at 80‰, 300 steps, a quarter of mvto's
// BEGINs read-only — and holds each run's digest to pinnedDigests, so a
// change that claims to leave the sim's runs byte-identical shows it here.
func TestSimDigestsPinned(t *testing.T) {
	for _, backend := range backends {
		for seed := uint64(1); seed <= 12; seed++ {
			key := fmt.Sprintf("%s/%d", backend, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				cfg := sim.Config{Seed: seed, Backend: backend, Steps: 300,
					Faults: sim.AllFaults(), FaultPermille: 80}
				if backend == "mvto" {
					cfg.ROPermille = 250
				}
				rep, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("sim.Run(%+v): %v", cfg, err)
				}
				if got := runDigest(t, rep); got != pinnedDigests[key] {
					t.Errorf("digest = %s, want %s", got, pinnedDigests[key])
				}
			})
		}
	}
}

// runDigest hashes what a run leaves: its summary, its trace, its
// certificate and its WAL.
func runDigest(t *testing.T, rep *sim.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d:", rep.Summary(), len(rep.Trace))
	h.Write(rep.Trace)
	fmt.Fprintf(h, "%d:%s", len(rep.CertDOT), rep.CertDOT)
	names, err := rep.FinalDisk.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := rep.FinalDisk.ReadSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d:", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
