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
// it moved; every trace, certificate and WAL stayed byte-identical. Every
// row was re-pinned when the client began sending a locking transaction's
// read ahead of its answer whenever the attempt holds it (a repeat, or a
// read after its own write): such a read no longer waits, so the sessions
// park, and the faults and wakes are drawn, at other points, and every run
// is another schedule. Its committed-top count moved with it (928 in all
// over the 36 rows before, 910 after; per row by up to 8 either way), and
// each run still passes Batch.OK, Match, generic.Accept and every recovery
// audit, which Run checks.
var pinnedDigests = map[string]string{
	"moss/1":     "9443500c47c680de1d25925074c5ab533133ffebdddba304d42c98fde7e44df7",
	"moss/2":     "e223003ca8b58b9cd9759a728e7c9c5da4844160dadae9d32e87b5fbc7521d68",
	"moss/3":     "229268ec69259ac2085c145533276baa6a50e4fe7380b6aaf86511676166692e",
	"moss/4":     "9c6cbf19a5ea9d1df2dc297c22ed8c67e5a0c22926ac9621621b67118b361cee",
	"moss/5":     "216b98bfa3ab84dbc46bb5648e436b8879b2ee961bf34fff99be2aa2fd992d64",
	"moss/6":     "2ccd36e9bce225de18a8806f6e5b9e1a8c7447255afe9f1fe63f18f44cc9eda0",
	"moss/7":     "1554082dcf3c6a7a640c23489130b3f2c039ba572466909168407febdeb98129",
	"moss/8":     "d0553ff769d0f2ac59d075fefb4b0641124a5f6392da6baa97c73eaf9b298cd1",
	"moss/9":     "68ef0628f8e0754fc8c1527471d4e66be1f997bae6015116cb9d8c0e5296f9e3",
	"moss/10":    "0d66ab929fdae853669663ec70a7a172b318d62056912c610363b8fd8e2cef59",
	"moss/11":    "93cc75a34314023cef5c3a35d14780bb03c5b70ccfc624cd45bb62fd0d449655",
	"moss/12":    "11bd68d9a71d2d2db23b2b6067892cdc210f24d6b5923bc180b11d2b33de6931",
	"undolog/1":  "9443500c47c680de1d25925074c5ab533133ffebdddba304d42c98fde7e44df7",
	"undolog/2":  "e223003ca8b58b9cd9759a728e7c9c5da4844160dadae9d32e87b5fbc7521d68",
	"undolog/3":  "229268ec69259ac2085c145533276baa6a50e4fe7380b6aaf86511676166692e",
	"undolog/4":  "9c6cbf19a5ea9d1df2dc297c22ed8c67e5a0c22926ac9621621b67118b361cee",
	"undolog/5":  "216b98bfa3ab84dbc46bb5648e436b8879b2ee961bf34fff99be2aa2fd992d64",
	"undolog/6":  "2ccd36e9bce225de18a8806f6e5b9e1a8c7447255afe9f1fe63f18f44cc9eda0",
	"undolog/7":  "1554082dcf3c6a7a640c23489130b3f2c039ba572466909168407febdeb98129",
	"undolog/8":  "d0553ff769d0f2ac59d075fefb4b0641124a5f6392da6baa97c73eaf9b298cd1",
	"undolog/9":  "68ef0628f8e0754fc8c1527471d4e66be1f997bae6015116cb9d8c0e5296f9e3",
	"undolog/10": "0d66ab929fdae853669663ec70a7a172b318d62056912c610363b8fd8e2cef59",
	"undolog/11": "93cc75a34314023cef5c3a35d14780bb03c5b70ccfc624cd45bb62fd0d449655",
	"undolog/12": "11bd68d9a71d2d2db23b2b6067892cdc210f24d6b5923bc180b11d2b33de6931",
	"mvto/1":     "b59f39cfe409f0e385c731384a82755f6cf7ede5bd03f51c6cc38175de189aca",
	"mvto/2":     "453948548b2a525ad42ab7c4e19a60c280d503dfa54619a0784186a165dc1d65",
	"mvto/3":     "1c6c4805fdce0f57ea408fa10e9227a367aff2719a779b6fd6acf63148021abf",
	"mvto/4":     "66002bcd038045a55f226c5211d5ee3d0144a41640250b9b31a824a323407756",
	"mvto/5":     "4aecd1f5820ea329a37660d0613077ad18c144e7ffc9c98c965a57afe6991bee",
	"mvto/6":     "bc7cd69e782d2b7db4f3aeb78cea1e02075962b63bb2db9ba47d39a52e9017bc",
	"mvto/7":     "fe69aa5d8ef4b56a86a2bc2ab157abbdd41ec1c162bb78d141264ee9e33e1b72",
	"mvto/8":     "aaebd731f532ecb1cf5f21bdfc05fd16130f3c9adb8b09f1857a121570b85632",
	"mvto/9":     "9970b8678ed7379a08d30d1e74ca6b3eb4123d4cb2e79e158694ab33f7ab5d20",
	"mvto/10":    "4e8386be3e1f19a1a6a9bf976579cae467441d75150eee2d2ef5c33a5eb86647",
	"mvto/11":    "d5e04c7842c329dcc225c295ae687a6473176a55e173bd7a0b67957bd6d4b24b",
	"mvto/12":    "ab0f964ea11e964c7770f44f366f46cb0bee52812cdacb0cc7ec8b545604cddb",
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
