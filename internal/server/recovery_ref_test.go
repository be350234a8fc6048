package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/simple"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// referenceRecover is Recover as it stood before recovery decoded the WAL
// straight into the log: the scan gathers every definition as an
// event.WalOp and every event into one event.Behavior, the definitions are
// replayed into the tree, simple.CheckWellFormed makes a pass of its own,
// replay drives the automata from the behavior, keeping the touched
// objects per transaction and the informs delivered in a map, the
// behavior is packed into the log, and the certifier is primed over the
// whole stitched log. The differential tests hold the one-pass recovery to
// it.
func referenceRecover(opts Options) (s *Server, rep *RecoveryReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, rep = nil, nil
			err = fmt.Errorf("server: recovery rejected wal: %v", r)
		}
	}()
	opts = opts.withDefaults()
	s = &Server{
		opts:    opts,
		tr:      tname.NewTree(),
		log:     &eventLog{},
		metrics: newMetrics(),
		conns:   make(map[*session]struct{}),
	}
	p, err := resolveProtocol(opts, s.tr)
	if err != nil {
		return nil, nil, err
	}
	s.proto, s.backend = p, opts.Backend
	if s.backend == "" {
		s.backend = p.Name()
	}
	s.cert = newCertifier(s)
	if opts.Backend == "mvto" {
		s.cert.snap = newSnapshotStore(s)
	}
	rep = &RecoveryReport{}
	var r refReplayed
	if err := s.refReplayWAL(&r, rep); err != nil {
		return nil, nil, err
	}
	if s.log.len() == 0 {
		s.log.append(event.NewEvent(event.Create, tname.Root))
	}
	s.refStitch(&r, rep)
	for _, label := range opts.Objects {
		if _, err := s.resolveObject(label); err != nil {
			return nil, nil, fmt.Errorf("server: pre-creating object %q: %w", label, err)
		}
	}
	if err := s.wal.sync(); err != nil {
		return nil, nil, fmt.Errorf("server: recovery sync: %w", err)
	}
	if err := s.primeCertifier(rep); err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// refWalScan is the result of reading a WAL off a Disk.
type refWalScan struct {
	defs          []event.WalOp
	events        event.Behavior
	records       int
	numTx, numObj int
	segments      int
	nextIdx       int
	tornSegment   string
	tornBytes     int64
	zeroBytes     int64
}

func refScanWAL(disk Disk) (*refWalScan, error) {
	names, err := disk.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	res := &refWalScan{nextIdx: 1, segments: len(names), numTx: 1}
	prevIdx := -1
	for si, name := range names {
		idx, ok := segmentIndex(name)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected file %q", errWalCorrupt, name)
		}
		if prevIdx >= 0 && idx != prevIdx+1 {
			return nil, fmt.Errorf("%w: segment hole: %s follows %s", errWalCorrupt, name, segmentName(prevIdx))
		}
		prevIdx = idx
		last := si == len(names)-1
		data, err := disk.ReadSegment(name)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", name, err)
		}
		validTo, serr := res.scanSegment(data)
		if serr != nil && !last {
			return nil, fmt.Errorf("%w: segment %s offset %d: %v", errWalCorrupt, name, validTo, serr)
		}
		if last && (serr != nil || validTo < len(data)) {
			torn := len(bytes.TrimRight(data[validTo:], "\x00"))
			res.zeroBytes = int64(len(data) - validTo - torn)
			if torn > 0 {
				res.tornSegment, res.tornBytes = name, int64(torn)
			}
			if validTo < headerLen() {
				if err := disk.Truncate(name, 0); err != nil {
					return nil, fmt.Errorf("wal: truncating torn %s: %w", name, err)
				}
				res.nextIdx = idx
				return res, nil
			}
			if err := disk.Truncate(name, int64(validTo)); err != nil {
				return nil, fmt.Errorf("wal: truncating torn %s: %w", name, err)
			}
		}
		res.nextIdx = idx + 1
	}
	return res, nil
}

func (sc *refWalScan) scanSegment(data []byte) (int, error) {
	if len(data) < headerLen() || string(data[:4]) != string(walMagic[:]) {
		return 0, errors.New("bad segment header")
	}
	if data[4] != walVersion {
		return 0, fmt.Errorf("unsupported wal version %d", data[4])
	}
	zeros := len(bytes.TrimRight(data, "\x00"))
	pos := headerLen()
	for pos < len(data) {
		if data[pos] == 0 {
			if pos < zeros {
				return pos, errors.New("non-zero bytes after the end of records")
			}
			return pos, nil
		}
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return pos, errors.New("short record length")
		}
		if plen > maxWalRecord {
			return pos, fmt.Errorf("record length %d exceeds limit", plen)
		}
		body := pos + n
		end := body + int(plen) + 4
		if end > len(data) {
			return pos, errors.New("short record")
		}
		payload := data[body : body+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[body+int(plen):end]) {
			return pos, errors.New("record checksum mismatch")
		}
		op, err := event.DecodeWalOp(payload, sc.numTx, sc.numObj)
		if err != nil {
			return pos, err
		}
		switch op.Kind {
		case event.WalObjectDef:
			sc.numObj++
			sc.defs = append(sc.defs, op)
		case event.WalTxDef:
			sc.numTx++
			sc.defs = append(sc.defs, op)
		case event.WalEvents:
			sc.events = append(sc.events, op.Events...)
		}
		sc.records++
		pos = end
	}
	return pos, nil
}

// refReplayed is what referenceRecover's replay leaves its repairs.
type refReplayed struct {
	touched     [][]tname.ObjID
	informed    map[txObj]bool
	done        []bool
	completions []event.Event
	tops        []tname.TxID
}

// txObj is a transaction and an object.
type txObj struct {
	t tname.TxID
	x tname.ObjID
}

func (s *Server) refReplayWAL(r *refReplayed, rep *RecoveryReport) error {
	scan, err := refScanWAL(s.opts.WAL)
	if err != nil {
		return err
	}
	rep.Segments, rep.Records = scan.segments, scan.records
	rep.TornBytes, rep.TornSegment, rep.ZeroBytes = scan.tornBytes, scan.tornSegment, scan.zeroBytes
	if err := s.refReplayDefs(scan.defs); err != nil {
		return err
	}
	b := scan.events
	rep.DurableEvents = len(b)
	switch {
	case len(b) == 0:
		if s.tr.NumTx() > 1 || s.tr.NumObjects() > 0 {
			return fmt.Errorf("server: recovery rejected wal: definitions without events")
		}
	case b[0].Kind != event.Create || b[0].Tx != tname.Root:
		return fmt.Errorf("server: recovery rejected wal: log does not open with CREATE(T0)")
	default:
		if err := simple.CheckWellFormed(s.tr, b); err != nil {
			return fmt.Errorf("server: recovery rejected wal: %w", err)
		}
		if err := s.refReplay(b, r); err != nil {
			return err
		}
	}
	s.log.append(b...)
	s.wal, err = newWalWriter(s, scan.nextIdx)
	return err
}

func (s *Server) refReplayDefs(defs []event.WalOp) error {
	var sessions int64
	for _, op := range defs {
		switch op.Kind {
		case event.WalObjectDef:
			if s.tr.Object(op.Label) != tname.NoObj {
				return fmt.Errorf("server: recovery rejected wal: duplicate object %q", op.Label)
			}
			s.newSharedObject(s.tr.AddObject(op.Label, spec.ByName(op.SpecName)))
		case event.WalTxDef:
			s.tr.Define(op.Parent, op.Label, op.Obj, op.Op)
			if op.Parent == tname.Root {
				sessions = max(sessions, sessionOf(op.Label))
			}
		case event.WalEvents:
		}
	}
	if err := s.tr.Validate(); err != nil {
		return fmt.Errorf("server: recovery rejected wal: %w", err)
	}
	s.sessionSeq.Store(sessions)
	return nil
}

func (s *Server) refReplay(b event.Behavior, r *refReplayed) error {
	n := s.tr.NumTx()
	r.touched = make([][]tname.ObjID, n)
	r.informed = make(map[txObj]bool)
	r.done = make([]bool, n)
	m := s.metrics
	for i, e := range b {
		switch e.Kind {
		case event.Create:
			if e.Tx == tname.Root {
				continue
			}
			if s.tr.IsAccess(e.Tx) {
				x := s.tr.AccessObject(e.Tx)
				s.objs[x].g.Create(e.Tx)
				for u := e.Tx; u != tname.Root; u = s.tr.Parent(u) {
					if !slices.Contains(r.touched[u], x) {
						r.touched[u] = append(r.touched[u], x)
					}
				}
			}
			if s.tr.Parent(e.Tx) == tname.Root {
				m.Begins.Add(1)
				r.tops = append(r.tops, e.Tx)
			}
		case event.RequestCommit:
			if s.tr.IsAccess(e.Tx) {
				g := s.objs[s.tr.AccessObject(e.Tx)].g
				v, ok := g.TryRequestCommit(e.Tx)
				if !ok {
					return fmt.Errorf("server: recovery rejected wal: event %d: access %s not grantable at its logged position",
						i, s.tr.Name(e.Tx))
				}
				if v != e.Val {
					return fmt.Errorf("server: recovery rejected wal: event %d: access %s replays to %s, log says %s",
						i, s.tr.Name(e.Tx), v, e.Val)
				}
			}
		case event.Commit, event.Abort:
			if e.Kind == event.Commit {
				m.CommitEvents.Add(1)
				if s.tr.Parent(e.Tx) == tname.Root {
					m.TopCommits.Add(1)
				}
			} else {
				m.AbortEvents.Add(1)
			}
			r.done[e.Tx] = true
			r.completions = append(r.completions, e)
		case event.InformCommit:
			s.objs[e.Obj].g.InformCommit(e.Tx)
			r.informed[txObj{e.Tx, e.Obj}] = true
		case event.InformAbort:
			s.objs[e.Obj].g.InformAbort(e.Tx)
			r.informed[txObj{e.Tx, e.Obj}] = true
		default:
		}
	}
	return nil
}

func (s *Server) refStitch(r *refReplayed, rep *RecoveryReport) {
	for _, e := range r.completions {
		kind := event.InformCommit
		if e.Kind == event.Abort {
			kind = event.InformAbort
		}
		for _, x := range r.touched[e.Tx] {
			if !r.informed[txObj{e.Tx, x}] {
				s.inform(kind, s.objs[x], e.Tx)
				rep.FixupInforms++
			}
		}
	}
	slices.Sort(r.tops)
	for _, t := range r.tops {
		if !r.done[t] {
			s.abort(t, r.touched[t])
			rep.OrphanTops++
		}
	}
	rep.StitchedEvents = s.log.len()
}

// checkRecoveryDifferential recovers a copy of each of disk's segments
// with Recover and with referenceRecover and holds them to each other: the
// same verdict; on success the same RecoveryReport, name tree, log,
// metrics the replay counts, session counter and certifier state. With
// sameError it also holds a rejection to the reference's text, which is
// only fair when the image holds one fault: the reference finishes the
// scan before it replays any definition, and checks the whole prefix's
// well-formedness before it drives any automaton, so of two faults the
// two paths may name different ones. The one verdict allowed to differ is
// an INFORM before its transaction's completion, which the reference
// accepts and Recover refuses.
func checkRecoveryDifferential(t testing.TB, name string, disk *MemDisk, sameError bool) {
	t.Helper()
	got, gotRep, err := Recover(Options{WAL: cloneDisk(disk)})
	want, wantRep, wantErr := referenceRecover(Options{WAL: cloneDisk(disk)})
	defer func() {
		for _, s := range []*Server{got, want} {
			if s != nil {
				s.Kill()
			}
		}
	}()
	if err != nil && wantErr == nil {
		if at := earlyInform(want.tr, want.log.snapshot()[:wantRep.DurableEvents]); at >= 0 &&
			strings.Contains(err.Error(), fmt.Sprintf("event %d: INFORM_", at)) {
			return
		}
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: Recover says %v, the reference %v", name, err, wantErr)
	case err != nil:
		if sameError && err.Error() != wantErr.Error() {
			t.Fatalf("%s: Recover rejects with\n  %v\nthe reference with\n  %v", name, err, wantErr)
		}
		return
	}
	if *gotRep != *wantRep {
		t.Fatalf("%s: report\n  %+v\nthe reference's\n  %+v", name, *gotRep, *wantRep)
	}
	gotLog, wantLog := got.log.snapshot(), want.log.snapshot()
	if !bytes.Equal(event.MarshalBinaryTrace(got.tr, gotLog), event.MarshalBinaryTrace(want.tr, wantLog)) || !gotLog.Equal(wantLog) {
		t.Fatalf("%s: recovered tree and log differ from the reference's", name)
	}
	gm, wm := got.metrics, want.metrics
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"Begins", gm.Begins.Load(), wm.Begins.Load()},
		{"TopCommits", gm.TopCommits.Load(), wm.TopCommits.Load()},
		{"CommitEvents", gm.CommitEvents.Load(), wm.CommitEvents.Load()},
		{"AbortEvents", gm.AbortEvents.Load(), wm.AbortEvents.Load()},
		{"session counter", got.sessionSeq.Load(), want.sessionSeq.Load()},
		{"watermark", got.cert.watermark.Load(), want.cert.watermark.Load()},
		{"certified edges", got.cert.edges.Load(), want.cert.edges.Load()},
	} {
		if c.got != c.want {
			t.Fatalf("%s: %s = %d, the reference's %d", name, c.what, c.got, c.want)
		}
	}
}

// cloneDisk copies disk's segments into a disk of their own, so that a
// recovery's truncation does not reach another's.
func cloneDisk(disk *MemDisk) *MemDisk {
	c := NewMemDisk()
	names, _ := disk.Segments()
	for _, n := range names {
		data, _ := disk.ReadSegment(n)
		c.SetSegment(n, data)
	}
	return c
}

// segmentDisk is a disk whose only segment is data.
func segmentDisk(data []byte) *MemDisk {
	disk := NewMemDisk()
	disk.SetSegment(segmentName(1), data)
	return disk
}

// earlyInform returns the index of the first INFORM in b whose
// transaction has not completed as the INFORM says earlier in b, or -1.
func earlyInform(tr *tname.Tree, b event.Behavior) int {
	done := make([]event.Kind, tr.NumTx())
	for i, e := range b {
		switch e.Kind {
		case event.Commit, event.Abort:
			done[e.Tx] = e.Kind
		case event.InformCommit, event.InformAbort:
			if need := map[event.Kind]event.Kind{event.InformCommit: event.Commit, event.InformAbort: event.Abort}[e.Kind]; done[e.Tx] != need {
				return i
			}
		}
	}
	return -1
}

// TestRecoveryMatchesReferenceOnCorpus holds Recover to referenceRecover
// on every committed FuzzRecoveryReplay seed, error text included.
func TestRecoveryMatchesReferenceOnCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRecoveryReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data := readFuzzSeed(t, filepath.Join(dir, e.Name()))
		checkRecoveryDifferential(t, e.Name(), segmentDisk(data), true)
	}
}

// TestRecoveryMatchesReferenceOnPrefixes holds Recover to referenceRecover
// on every byte prefix of the images TestRecoverTruncationPrefixes and
// TestRecoverRepairPrefixes recover, and of the three-segment image those
// records rotate into, error text included: each prefix holds at most one
// fault, its torn tail.
func TestRecoveryMatchesReferenceOnPrefixes(t *testing.T) {
	for name, img := range map[string][]byte{
		"tiny":         segmentImage(t),
		"two_sessions": walImage(t, twoSessionWal()),
	} {
		for n := 0; n <= len(img); n++ {
			checkRecoveryDifferential(t, fmt.Sprintf("%s[:%d]", name, n), segmentDisk(img[:n]), true)
		}
	}
	rotated := NewMemDisk()
	writeRecords(t, rotated, 96, twoSessionWal()...)
	names, _ := rotated.Segments()
	if len(names) < 3 {
		t.Fatalf("the rotated image has %d segments, want at least 3", len(names))
	}
	last := names[len(names)-1]
	data, _ := rotated.ReadSegment(last)
	for n := 0; n <= len(data); n++ {
		disk := cloneDisk(rotated)
		disk.SetSegment(last, data[:n])
		checkRecoveryDifferential(t, fmt.Sprintf("rotated %s[:%d]", last, n), disk, true)
	}
}

// readFuzzSeed reads the []byte of a committed fuzz seed file.
func readFuzzSeed(t *testing.T, path string) []byte {
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
