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
// driver draws nothing from a burst's fetched reads. 19 rows moved, log and
// summary (3 only their log), when a burst stopped being cut at 8 requests:
// in each, some session put a 9th request ahead of its answers, which used
// to send the first 8 there and then, so the server saw them, and sessions
// parked, at other steps. Every row in which no session reached 8 stayed
// byte-identical, and no snapshot fetch in the matrix was ever cut short.
var pinnedDigests = map[string]struct{ log, summary string }{
	"moss/1": {
		"09a25607d3f8a2bc59e1570c4fa152f4c8ca12687adad359a035c17c409f17a6",
		"0f3d525f3d1b9b501749c0771587fad2e284faa2b702f1cd37964e20a63bd4a3",
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
		"5faf9cddc12808c93316abcf763d92393623a509b7facdd3dd034950b60ec022",
		"ca99c18c56b6f7af3f506b1ab590e663b1359bce5c0043de62971a82eedda699",
	},
	"moss/5": {
		"1b24cdf5657b53ce7c862e40689c6e9f9f70ef537a15675edbf7c1c046814021",
		"c10f3d51840894fb1de21e18ccb891ebb64b7c8935059b8db3e8e0373d4cfb69",
	},
	"moss/6": {
		"adbeda2ba61263c7cb5d7499133e89d8d741ea7bd7eee19b5febd3c16c958b47",
		"62be01c6cc307d929922b37d5e98c9082fd743d4b973aa142d14a4de4b6f3592",
	},
	"moss/7": {
		"69976aef9728c38b9438552f3b399865766f6cae265d7cb1e0303caf1037807f",
		"85193d790f2b61998a34988faf99601a508b4157fac14d54f8ff3ffa37cdfc19",
	},
	"moss/8": {
		"34ea81615e7760b7991084b4534ffed7f770abe556694e49641b59516bd2c8de",
		"f31a4b963a770411f6978a19aec175879fe4b16450d41c9ce28fac78917fe7c0",
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
		"374ff61183e0d1841e46d599baa744945babb6f4dcae77d1645f97cf57485558",
		"5729111a99dd8e5c2c50adab4d7aa1194edc72e3d4fc55c24f74951815dd95e9",
	},
	"undolog/1": {
		"09a25607d3f8a2bc59e1570c4fa152f4c8ca12687adad359a035c17c409f17a6",
		"0f3d525f3d1b9b501749c0771587fad2e284faa2b702f1cd37964e20a63bd4a3",
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
		"5faf9cddc12808c93316abcf763d92393623a509b7facdd3dd034950b60ec022",
		"ca99c18c56b6f7af3f506b1ab590e663b1359bce5c0043de62971a82eedda699",
	},
	"undolog/5": {
		"1b24cdf5657b53ce7c862e40689c6e9f9f70ef537a15675edbf7c1c046814021",
		"c10f3d51840894fb1de21e18ccb891ebb64b7c8935059b8db3e8e0373d4cfb69",
	},
	"undolog/6": {
		"adbeda2ba61263c7cb5d7499133e89d8d741ea7bd7eee19b5febd3c16c958b47",
		"62be01c6cc307d929922b37d5e98c9082fd743d4b973aa142d14a4de4b6f3592",
	},
	"undolog/7": {
		"69976aef9728c38b9438552f3b399865766f6cae265d7cb1e0303caf1037807f",
		"85193d790f2b61998a34988faf99601a508b4157fac14d54f8ff3ffa37cdfc19",
	},
	"undolog/8": {
		"34ea81615e7760b7991084b4534ffed7f770abe556694e49641b59516bd2c8de",
		"f31a4b963a770411f6978a19aec175879fe4b16450d41c9ce28fac78917fe7c0",
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
		"374ff61183e0d1841e46d599baa744945babb6f4dcae77d1645f97cf57485558",
		"5729111a99dd8e5c2c50adab4d7aa1194edc72e3d4fc55c24f74951815dd95e9",
	},
	"mvto/1": {
		"ed8790c2b3ed5433b6181b3c3077972696812d3d3d60804380ad1bcdd7c66224",
		"16046a9431672de060141be20a2a417fa767bbbe30e47e61322863bf45d09ac5",
	},
	"mvto/2": {
		"01a8ec95ee0d5fb7e7c0e394b530db80065f11ff61b10f2cf9dfd2e2e251e9a7",
		"fe48129f915a74bb820278fba090b96fef0b9bb8321adc549ee78959fd288dbd",
	},
	"mvto/3": {
		"90a5b0d9749498878c1e26cadaa8645aadfe62e40efc11c5f3245210eae815e4",
		"9b4f0e958e51fdf03d76b89895c7cab6a54223730221959b10c33e9bba550407",
	},
	"mvto/4": {
		"d6b2f2f453106527a588d9911ae850c5cb89af2118029c71041d37b89ac4b693",
		"612120771e5552d8e7977943a2008a18fa041389186106c52a86fc6a3db0afc7",
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
		"4c08f9f77bb08a28067f2352f6ccb876d8245db48a4ccb74f274b005322fd264",
		"2206161d61cd6b181ed39e7bc06977253ab7e54953cc998d17da97cc642a44a3",
	},
	"mvto/9": {
		"f2326e13733a5d4c64fc2583f164ae513076dd432e6895313166015d891e7146",
		"c788b819670022b2c5c7eddd4b82801d941bb2e20c4bb3b3d849b81acdfbb598",
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
		"0ef90d116cee5314d678dcd00b1df5aaf44f87330e7c1d94ad181debc6f6413c",
		"26c8dde62a8da7d854697e69aea1c23fa5531f3c849a72b0dbdceb9bd8889b91",
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
