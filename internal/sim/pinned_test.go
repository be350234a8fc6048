package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"nestedsg/internal/sim"
)

// pinnedDigests holds, per backend and seed of the pinned matrix, two
// sha256 digests of the run: log, over its Trace, its CertDOT and every
// FinalDisk segment (name and bytes, in segment order), and summary, over
// its Summary(). Every later change to recovery, the server, the client or
// the sim must leave them as they are unless it means to change a run, and
// one that means to change only what a run counts moves only summary.
//
// History. Every row was re-pinned when the client began sending a locking
// transaction's read ahead of its answer whenever the attempt holds it: such
// a read no longer waits, so sessions park, and faults and wakes are drawn,
// at other points, and every run is another schedule. The two digests were
// split when a snapshot transaction's first read began fetching what its
// connection's snapshot transactions last read: the mvto rows' summary
// moved in 8 of 12 rows (accesses= counts the snapshot reads the server
// served, fetched ones included, 2 to 4 more per row), and every log digest
// stayed byte-identical, since a snapshot read is logged nowhere and the
// driver draws nothing from a burst's fetched reads.
var pinnedDigests = map[string]struct{ log, summary string }{
	"moss/1": {
		"3b789e6ac5ca1f452cff03d0bbb14933056a4ea9eec3eb0face6038b9e209a26",
		"3542917455109ce10ab66c87e8b4113edea256bf3bf423ad6815f7c5f0a2dd54",
	},
	"moss/2": {
		"2da6f09191b3ed5996b72a249f1602c6ab3f2b3e8c0330113635a4bb0c15ce11",
		"ff2c1dcd57de352f0feb9170a47fda56fda1b08e20faf9a7ed428fce98f6a3aa",
	},
	"moss/3": {
		"d1f8638d7b6c9070c61002799c022303bc99f6618d4514e67e89f9c528400305",
		"35c693e16ffba1823e8bced5b4adb3dcdc22b772579b60728607cebad45eeb23",
	},
	"moss/4": {
		"f14d0a7426b12d6cf2c3cd4d504751eff869e49c35ee5f9db0b894c59e9a4599",
		"7d78f1fc4ed7b937819915b3a74fb02d40fc5fe279d9f840e9b0b9065b01315c",
	},
	"moss/5": {
		"17a638c669067af548bceb13e8b4cdfc03912e066f0e1e65f419f406b899ad19",
		"4f2d645f018245607ec0314e0e7bf949acecc9133e474bf05f6973c4e66b886f",
	},
	"moss/6": {
		"74dfdeb67d5cd58db1c6a95b2269ab866238e780825732c19ae4b87851156863",
		"5241dd05b2c1d086df4a1eff77c7cc424e789b699e3e0a2313afea0de3fed880",
	},
	"moss/7": {
		"69976aef9728c38b9438552f3b399865766f6cae265d7cb1e0303caf1037807f",
		"85193d790f2b61998a34988faf99601a508b4157fac14d54f8ff3ffa37cdfc19",
	},
	"moss/8": {
		"8b1eb93c3434db6730a92f23ff818c4b34fd129ca35ff87e7d9b51092d347669",
		"e837f6a210d37ca01d2f55a57ecc9a7d277a6bc3eaf427b0b6eba66b35810ad0",
	},
	"moss/9": {
		"418f56cd46d0dbdc150ce3d74d9cbf368b1d018a5f22b4c6ee3b7bb39a2308ff",
		"02c69157fd0372cc7b7ce940ea973808cff61a220158f99250c0d64ee927329c",
	},
	"moss/10": {
		"f04288eb5ab5aa6ce4410d2a97e578f7832bce9fd304311f3efae92d50cd51e6",
		"6c9836f54f796654c6f050199257eb8784a9caab3d1b130649bd2d8b5b68da57",
	},
	"moss/11": {
		"8f3a74d745cf3936ebbc2c33b53ffdcc2de2d6d2dc66a5511a82b205f27e76ed",
		"43ba8d782beedf62a580a4028a9d885005b426059ed316716e5818e98d40b6dc",
	},
	"moss/12": {
		"0016afc24bf7beb2832c662c305c03de03fd0da3838299e983e1bb7821c81bb9",
		"5729111a99dd8e5c2c50adab4d7aa1194edc72e3d4fc55c24f74951815dd95e9",
	},
	"undolog/1": {
		"3b789e6ac5ca1f452cff03d0bbb14933056a4ea9eec3eb0face6038b9e209a26",
		"3542917455109ce10ab66c87e8b4113edea256bf3bf423ad6815f7c5f0a2dd54",
	},
	"undolog/2": {
		"2da6f09191b3ed5996b72a249f1602c6ab3f2b3e8c0330113635a4bb0c15ce11",
		"ff2c1dcd57de352f0feb9170a47fda56fda1b08e20faf9a7ed428fce98f6a3aa",
	},
	"undolog/3": {
		"d1f8638d7b6c9070c61002799c022303bc99f6618d4514e67e89f9c528400305",
		"35c693e16ffba1823e8bced5b4adb3dcdc22b772579b60728607cebad45eeb23",
	},
	"undolog/4": {
		"f14d0a7426b12d6cf2c3cd4d504751eff869e49c35ee5f9db0b894c59e9a4599",
		"7d78f1fc4ed7b937819915b3a74fb02d40fc5fe279d9f840e9b0b9065b01315c",
	},
	"undolog/5": {
		"17a638c669067af548bceb13e8b4cdfc03912e066f0e1e65f419f406b899ad19",
		"4f2d645f018245607ec0314e0e7bf949acecc9133e474bf05f6973c4e66b886f",
	},
	"undolog/6": {
		"74dfdeb67d5cd58db1c6a95b2269ab866238e780825732c19ae4b87851156863",
		"5241dd05b2c1d086df4a1eff77c7cc424e789b699e3e0a2313afea0de3fed880",
	},
	"undolog/7": {
		"69976aef9728c38b9438552f3b399865766f6cae265d7cb1e0303caf1037807f",
		"85193d790f2b61998a34988faf99601a508b4157fac14d54f8ff3ffa37cdfc19",
	},
	"undolog/8": {
		"8b1eb93c3434db6730a92f23ff818c4b34fd129ca35ff87e7d9b51092d347669",
		"e837f6a210d37ca01d2f55a57ecc9a7d277a6bc3eaf427b0b6eba66b35810ad0",
	},
	"undolog/9": {
		"418f56cd46d0dbdc150ce3d74d9cbf368b1d018a5f22b4c6ee3b7bb39a2308ff",
		"02c69157fd0372cc7b7ce940ea973808cff61a220158f99250c0d64ee927329c",
	},
	"undolog/10": {
		"f04288eb5ab5aa6ce4410d2a97e578f7832bce9fd304311f3efae92d50cd51e6",
		"6c9836f54f796654c6f050199257eb8784a9caab3d1b130649bd2d8b5b68da57",
	},
	"undolog/11": {
		"8f3a74d745cf3936ebbc2c33b53ffdcc2de2d6d2dc66a5511a82b205f27e76ed",
		"43ba8d782beedf62a580a4028a9d885005b426059ed316716e5818e98d40b6dc",
	},
	"undolog/12": {
		"0016afc24bf7beb2832c662c305c03de03fd0da3838299e983e1bb7821c81bb9",
		"5729111a99dd8e5c2c50adab4d7aa1194edc72e3d4fc55c24f74951815dd95e9",
	},
	"mvto/1": {
		"1551b133cec05373fb8beb08d69e437b66c80794a31e7f290029cd2d5b894ac6",
		"0c1f8a3a0c636f98727a4967ebac146802da5fbbd17fe1c7b99b2d15e7be9548",
	},
	"mvto/2": {
		"c4bd0e2354d065a2f91584da1fd4ec0aba9d1897dbf4937b33eb66f4a3a7d01a",
		"e146d57ddbe91be00d324574a6ac6f6775de9c0240402f01f7734f4a2f71a72f",
	},
	"mvto/3": {
		"510c47fabc4bf6b66e1f13ee2dcba3539cf9f3bdb15baa870fb909f48d3adb2a",
		"9b4f0e958e51fdf03d76b89895c7cab6a54223730221959b10c33e9bba550407",
	},
	"mvto/4": {
		"637b3f40aa5a9293a86aa04d349be1376701ebad87080c03d1ab1efc1e8e0ac2",
		"dcbae84e185e6d796e88a5c2beae4a87e23e3c09686d79ca5cf1883f73986e40",
	},
	"mvto/5": {
		"9583979d831011a6c16cba90698e500dc28a809965b102d290b218297f3176e3",
		"ce8992cfd3b8e16a4ad0bc76d968c249dc5630df64b8f993dadae1ecd7a74589",
	},
	"mvto/6": {
		"22605d2ef9045dbf4080652b88fd6ce596fdc2fd052f712d7f7682d7a8253a88",
		"53ef9a1c568a724ccb387e358c2cfe86b07f9d10edd6786b02cf56b3b4ee795a",
	},
	"mvto/7": {
		"24886d2cba9cd4520b4d8ca8cf6e2dc3a56559832f6250e9d4636eaa5987303e",
		"9b90086a1b685841f3d12438c8579d9197897336e20444887a0d2bab8068fd51",
	},
	"mvto/8": {
		"5ed232e885109a658c5920ca9a3956c427000c1ca0f3e9850179bc0d811e2281",
		"24054573494d69e7d01567aecaf36abebe6ca9c78c9cf817e305a450db726998",
	},
	"mvto/9": {
		"19c6c7b50eb53d02728448b1ad9a2b2cad384225523f7cd3b729d1ab4c1d28e6",
		"5e8306e0079b7ae7f3554e9787ab65370396d2cfafd6ccddb2e3b77a0d2cc08d",
	},
	"mvto/10": {
		"fdceb892ab5a22fce371f33459327609bed7cde0aa617502a6ca3056770d15da",
		"b0833971571ab233f622c425584ab299a7cc7e7f0b4d2e70f00ad50c2641640e",
	},
	"mvto/11": {
		"5fe36932833ed7f16aee8915b5a0a620a7072ca8526675b4d484db5798e374fa",
		"841d871827810f38478efb25ff0ff24c50ceedd2dd382cfcaccabe778e577bee",
	},
	"mvto/12": {
		"7a42e340a73d0b4c59fabf4fd6d2bc6e3decc7f33c8182acd0e0fb685d3b2a4d",
		"87d56e86bb59f70125a7fa7f5edfae0f45216ceec0d28d59b8b8b456853ec98b",
	},
}

// TestSimDigestsPinned runs the pinned matrix — moss, undolog and mvto ×
// seeds 1–12, every fault class at 80‰, 300 steps, a quarter of mvto's
// BEGINs read-only — and holds each run's two digests to pinnedDigests, so
// a change that claims to leave the sim's runs byte-identical shows it
// here, and a failure says whether what moved is what the run logged or
// only what it counted.
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
				want := pinnedDigests[key]
				if got := logDigest(t, rep); got != want.log {
					t.Errorf("the log digest (trace, certificate, WAL) = %s, want %s", got, want.log)
				}
				if got := summaryDigest(rep); got != want.summary {
					t.Errorf("the summary digest = %s, want %s; Summary() = %s", got, want.summary, rep.Summary())
				}
			})
		}
	}
}

// logDigest hashes what a run leaves behind it: its trace, its certificate
// and its WAL.
func logDigest(t *testing.T, rep *sim.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:", len(rep.Trace))
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

// summaryDigest hashes what a run counted: its Summary().
func summaryDigest(rep *sim.Report) string {
	h := sha256.Sum256([]byte(rep.Summary()))
	return hex.EncodeToString(h[:])
}
