package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"nestedsg/internal/event"
)

// segmentImage renders the tinyWal records into one durable segment and
// returns its raw bytes.
func segmentImage(t testing.TB) []byte {
	t.Helper()
	disk := NewMemDisk()
	w, err := newWalWriter(disk, 1<<20, 1, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tinyWal() {
		if err := w.appendRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := disk.ReadSegment(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverSegment plants data as the only (fully synced) WAL segment and
// runs Recover over it.
func recoverSegment(data []byte) (*Server, *RecoveryReport, error) {
	disk := NewMemDisk()
	disk.SetSegment(segmentName(1), data)
	return Recover(Options{WAL: disk})
}

// FuzzRecoveryReplay feeds arbitrary bytes to the WAL scan + replay +
// stitch pipeline as a torn/corrupted segment. The contract: Recover never
// panics — it either rejects the bytes with an error, or returns a server
// whose stitched log passed both the batch check and the online/batch
// certificate audit. A served WAL must also be stable: recovering the
// stitched disk again needs no further repairs and yields the identical
// trace.
func FuzzRecoveryReplay(f *testing.F) {
	img := segmentImage(f)
	f.Add(img)
	f.Add(img[:len(img)-3]) // torn mid-record
	f.Add(img[:6])          // header only
	f.Add([]byte{})
	f.Add([]byte("NSGW\x01"))
	f.Add([]byte("not a wal"))

	f.Fuzz(func(t *testing.T, data []byte) {
		disk := NewMemDisk()
		disk.SetSegment(segmentName(1), data)
		s, rep, err := Recover(Options{WAL: disk})
		if err != nil {
			return // clean rejection is fine; panics are not
		}
		if !rep.AuditOK {
			t.Fatalf("Recover returned without error but audit not ok: %s", rep.Summary())
		}
		trace := event.MarshalBinaryTrace(s.tr, s.log.snapshot())
		s.Kill()

		// The stitched WAL on disk must recover again with no repairs.
		s2, rep2, err := Recover(Options{WAL: disk})
		if err != nil {
			t.Fatalf("stitched wal does not recover: %v (first: %s)", err, rep.Summary())
		}
		if rep2.OrphanTops != 0 || rep2.FixupInforms != 0 || rep2.TornBytes != 0 {
			t.Fatalf("second recovery repaired a stitched wal: %s", rep2.Summary())
		}
		trace2 := event.MarshalBinaryTrace(s2.tr, s2.log.snapshot())
		s2.Kill()
		if !bytes.Equal(trace, trace2) {
			t.Fatal("stitched trace not stable across recoveries")
		}
	})
}

// TestRecoverTruncationPrefixes runs Recover on every byte prefix of a
// real segment image: each must either recover with a passing audit or be
// rejected cleanly.
func TestRecoverTruncationPrefixes(t *testing.T) {
	img := segmentImage(t)
	for n := 0; n <= len(img); n++ {
		s, rep, err := recoverSegment(img[:n])
		if err != nil {
			continue
		}
		if !rep.AuditOK {
			t.Fatalf("prefix %d: recovered without audit: %s", n, rep.Summary())
		}
		s.Kill()
	}
}

// TestRegenerateRecoveryFuzzCorpus rewrites the committed seed corpus for
// FuzzRecoveryReplay when UPDATE_FUZZ_CORPUS=1; otherwise it checks the
// committed files are current.
func TestRegenerateRecoveryFuzzCorpus(t *testing.T) {
	img := segmentImage(t)
	seeds := map[string][]byte{
		"seed_segment":  img,
		"seed_torn":     img[:len(img)-3],
		"seed_header":   img[:6],
		"seed_garbage":  []byte("not a wal"),
		"seed_headless": []byte("NS"),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRecoveryReplay")
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus missing (run with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != content {
			t.Fatalf("seed corpus %s is stale (run with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}
