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
// Every row was re-pinned, log and summary, when the sync leader became the
// WAL's one writer. The WAL's records changed, one events record per sync
// where there had been one per append and one per name, so every log digest
// moved. With unsynced bytes only between a sync's write and its fsync, a
// crash now lands there: it first commits a session's open top and parks
// the sync that COMMIT leads, so every row, each with crashes, is another
// schedule. Fault-free runs stayed byte-identical: seeds 1–60 × the three
// backends, 300 steps, gave the same Trace, CertDOT and Summary, and WALs
// that decode to the same tree and events.
// The summary of 11 of the 12 mvto rows moved, and nothing else, when the
// connection's view replaced the fetch: the session pushes only the keys a
// commit changed and a snapshot read of a key the view holds is served no
// read, so accesses= counts 0 to 8 fewer per row (mvto/6 kept its count).
// Over seeds 1–60 × the three backends, with and without every fault class,
// at 300 ‰ read-only BEGINs, every Trace, CertDOT and WAL stayed
// byte-identical, and so did every Summary but its accesses= on mvto.
var pinnedDigests = map[string]struct{ log, summary string }{
	"moss/1": {
		"5840cbc21da3182f8403ea153f9a624dbc59a61fa9d62feaa028417852b39aa2",
		"9dc57336580a53863c74f3ad547cef778b83f28574457b4c68521d8499a1c44e",
	},
	"moss/2": {
		"d7300e45b86811542dfd26b841d5f94ec552a458f45802cbe8ca3b696d431a43",
		"f2f65b30d6390e880a14786a9f3320681fb3e5a3420275a0ffffe2195020a939",
	},
	"moss/3": {
		"619caae7a9fcd05f34025808e1fdb5e47e2ad47ee2e37ee0571c9a357e6979dd",
		"a61f1e897177e7f7bd7d9a23199f1baa8c3c52858df75bcb640a921b44bb6161",
	},
	"moss/4": {
		"3e16060d561fea6589390522ef0c9d012f9f8d787012fecc34b5dad0a99f5204",
		"c0f6986c4593508ad5a8d7e35ed1cefb1834f263bfe150f52faa65aee9c80b18",
	},
	"moss/5": {
		"940723aaf4152bc4b136a615762a9fcee9fe44f39cbb9c6dd585452461c37d9b",
		"ad9dc5ea4cf86cc050a4994db78b4d66e666b1a486beeba28086670ef2f63417",
	},
	"moss/6": {
		"96db65838531c08543622179c608d9be00b2389496ddacd3437c2786bd2a40aa",
		"b82a85a944dede9277438a9a1a6e23d6f9ef3e079282a34474d139f67d775c78",
	},
	"moss/7": {
		"36af3ccf486c3b60778916eb9e90fcdbcdfa31a3007ba8ae12b800db0eb89990",
		"089392e439b3b4b4245e511028af193e13f54d3e6582dbbf862b3302fa9a6c97",
	},
	"moss/8": {
		"c8b906b33886bc0093abdf993a89e2a37fb4df5326777a8907aab034a485f2fa",
		"d9a0ed3b01b20f38fde6d9fee3986bbd129fa8e59277b952b2c7414963f4d9cd",
	},
	"moss/9": {
		"e74b92f0f67ea08c5ab596cb76521333301a7677927452827731cfcbca400512",
		"ad6f93b38802d8861319c0561321907c449723bac29ffe40625ae8d26161bd3f",
	},
	"moss/10": {
		"ad43cfc15fde7bf4123e17ffadccd480608ddf35b58efc7e0a801c5886e949af",
		"7d3e6a6eaa68ff8ce25075a4b8c3b69005625df081210e1d80260bc88bdabfc1",
	},
	"moss/11": {
		"0fd014cf88568a3090b4426eb12b82a6767fd9dc18ee7356fb961a435c201015",
		"03dfbf728c9b6d235d6dff821efbed0a5abef7d1af8952b932bf2e99811ec3c6",
	},
	"moss/12": {
		"cbef079acd432cd46f7af3c83d8a1ee34e2ceaf927819c3eaa6d5a0b9f8deddb",
		"29e54cfb4ee673347e5221beece93d04cdaf91ec2ae8ec52a77feded8f3342c2",
	},
	"undolog/1": {
		"5840cbc21da3182f8403ea153f9a624dbc59a61fa9d62feaa028417852b39aa2",
		"9dc57336580a53863c74f3ad547cef778b83f28574457b4c68521d8499a1c44e",
	},
	"undolog/2": {
		"d7300e45b86811542dfd26b841d5f94ec552a458f45802cbe8ca3b696d431a43",
		"f2f65b30d6390e880a14786a9f3320681fb3e5a3420275a0ffffe2195020a939",
	},
	"undolog/3": {
		"619caae7a9fcd05f34025808e1fdb5e47e2ad47ee2e37ee0571c9a357e6979dd",
		"a61f1e897177e7f7bd7d9a23199f1baa8c3c52858df75bcb640a921b44bb6161",
	},
	"undolog/4": {
		"3e16060d561fea6589390522ef0c9d012f9f8d787012fecc34b5dad0a99f5204",
		"c0f6986c4593508ad5a8d7e35ed1cefb1834f263bfe150f52faa65aee9c80b18",
	},
	"undolog/5": {
		"940723aaf4152bc4b136a615762a9fcee9fe44f39cbb9c6dd585452461c37d9b",
		"ad9dc5ea4cf86cc050a4994db78b4d66e666b1a486beeba28086670ef2f63417",
	},
	"undolog/6": {
		"96db65838531c08543622179c608d9be00b2389496ddacd3437c2786bd2a40aa",
		"b82a85a944dede9277438a9a1a6e23d6f9ef3e079282a34474d139f67d775c78",
	},
	"undolog/7": {
		"36af3ccf486c3b60778916eb9e90fcdbcdfa31a3007ba8ae12b800db0eb89990",
		"089392e439b3b4b4245e511028af193e13f54d3e6582dbbf862b3302fa9a6c97",
	},
	"undolog/8": {
		"c8b906b33886bc0093abdf993a89e2a37fb4df5326777a8907aab034a485f2fa",
		"d9a0ed3b01b20f38fde6d9fee3986bbd129fa8e59277b952b2c7414963f4d9cd",
	},
	"undolog/9": {
		"e74b92f0f67ea08c5ab596cb76521333301a7677927452827731cfcbca400512",
		"ad6f93b38802d8861319c0561321907c449723bac29ffe40625ae8d26161bd3f",
	},
	"undolog/10": {
		"ad43cfc15fde7bf4123e17ffadccd480608ddf35b58efc7e0a801c5886e949af",
		"7d3e6a6eaa68ff8ce25075a4b8c3b69005625df081210e1d80260bc88bdabfc1",
	},
	"undolog/11": {
		"0fd014cf88568a3090b4426eb12b82a6767fd9dc18ee7356fb961a435c201015",
		"03dfbf728c9b6d235d6dff821efbed0a5abef7d1af8952b932bf2e99811ec3c6",
	},
	"undolog/12": {
		"cbef079acd432cd46f7af3c83d8a1ee34e2ceaf927819c3eaa6d5a0b9f8deddb",
		"29e54cfb4ee673347e5221beece93d04cdaf91ec2ae8ec52a77feded8f3342c2",
	},
	"mvto/1": {
		"f1698486b1483dace70a93d7fc1aa09b0ff89dfa9551cfec2dd21e217f05df7c",
		"bb77d04d80a795cabf48dfe006b03b93184b4825d8d6abec3d93f7eade76658f",
	},
	"mvto/2": {
		"a04c73cd498d5fb9903c46e4abe318fe6f28f0eb14f41e072dfad67555d56d25",
		"cb700f3e508c1f72a9c7053b9a80c4880074cfe279c642a74b68eb7aaa0ac1ae",
	},
	"mvto/3": {
		"8ef21f700751616137ba93fdb97ec4886dd7e7348763f29a88f9c9cf9dcd6cf9",
		"14c689abd0d6684fcb49fdd4ecdf7455882693dcf98f9a4e43016ff64a383c6e",
	},
	"mvto/4": {
		"402a94c9cac671cc70574c902dc673123bdb2f0bed41af5be0c5ba9f760cb76c",
		"6434be81022c5ea5387d35ff5108b1082085f1302a9ed3c09078e861c514f27d",
	},
	"mvto/5": {
		"1f00e1e36b145a0fb2f3b567f56ad06ccb6380e2e0ff195d516abe24b413e569",
		"bbbe090b6800911497159defd3bd5ad1339c2db73bc4076208258a241527f11d",
	},
	"mvto/6": {
		"c99fe69d06383193eee9b17f4555052a075dbaf0caac12746feca97425536792",
		"9c36fb857bfbd5574765dea931c1553c25663818dc3c30f92d2a7c04d736aea9",
	},
	"mvto/7": {
		"6d3038abc2d3355ce2deb951aa36daf49dd9771d497b7d6b0e4bb8f2ff446c11",
		"5131003f1cf970646d33722eb4c45f0806ceee68d0ec6e79359891c07132a0de",
	},
	"mvto/8": {
		"29f2bf1b43308f8a7213936d9cba9aa93e677fd1cd2fccb100270ec1baf18e7d",
		"a663b063540f060535be93cd73aa17f576ed12e2364a7b5f37afe824a2682205",
	},
	"mvto/9": {
		"ff97568a2eedaeaa42a158adcb53cb1e90ab51e681890429e5197357a7fad7f4",
		"31ac92d9e391febcfcc58d53ccd001aab2808ae4c49175ccf2f2e57b317322bf",
	},
	"mvto/10": {
		"c9219a8eef6c5e16be937f5086f9398dca829d46cd643c70ddb4c797965f8c5b",
		"1ce0c81e75c8bd2118c4b59885b4f517ec0e19ab8d27930683f59a12f62cb22f",
	},
	"mvto/11": {
		"eb1fcb5bc1407f3dea52b6215b1ebad9c8939ee2c6f4a8c347146b5fbe1ef00e",
		"568f8957b5a9287c89f3a09b19017e946e0f5d7c096e6c505686d3745b3bb377",
	},
	"mvto/12": {
		"7d8334928794d5d1301d94e17915941f882082f8cebf32046296c644bbda6458",
		"a37a373656b858339da53d3738dc8db98a1fdb2c8c8816a33ea1f9ae23e03215",
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
