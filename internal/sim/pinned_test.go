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
// unless it means to change a run. The mvto rows were re-pinned when the
// client began answering a snapshot transaction's repeated read itself:
// Summary's accesses= counts the snapshot reads the server served, and only
// it moved; every trace, certificate and WAL stayed byte-identical.
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
	"mvto/1":     "55019e12c6fa38987a17fe38a075d8597ff656076ce7cbf2c8351260793fb23f",
	"mvto/2":     "6a7aafa6f0c7edb942a324696be9db04804b277a89de000737ebdd4818fb54d4",
	"mvto/3":     "11e0907ebb5530facd74b5ee4c675ce61a8008eebd037adc7cc19154d9cb5ca5",
	"mvto/4":     "297c55ffbb97ee14858e359990730c9f391ad005c2a69f559eddaab1d78da157",
	"mvto/5":     "adfcc05837e99ee5c3898f8161de67b83eb6aad96f943d5c8b1dac0d3f37d009",
	"mvto/6":     "39b691a3408761ed5c35b844b2e399cf533c72b5d834e034b2028675d6ae7c1b",
	"mvto/7":     "6b64ab3ced0b071792b2cb640ebfc215de2ee6094c20d1dcfce65348b27bc08e",
	"mvto/8":     "03c62a9424e2fe58098523497dd1d3c7c0f895e1c910499b90640dced2966dc4",
	"mvto/9":     "29bd27563e5a9852d737a62d19b82d4f80f5c4a71c0e8130ec9356dcc38f9e81",
	"mvto/10":    "db52e488d5d5cf85d04aff3ad2e834dab5cb756166165071b69926c5fb03d6b1",
	"mvto/11":    "28d6e4c2c4a54b36d67255b5750c19faddd276e94da27c969fc0c863a4e27cec",
	"mvto/12":    "320a94d401b23d063ad61b079bdea7aab5c182e1f6cb8c28fa74934abaf4f451",
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
