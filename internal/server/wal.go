package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

// The write-ahead log is a sequence of segment files, each
//
//	"NSGW" | version uvarint | record*
//
// where a record is
//
//	payload-length uvarint | payload | crc32(payload) LE32
//
// and payloads are the WAL record codec of internal/event (WalObjectDef /
// WalTxDef / WalEvents). The WAL is a copy of the event log, which is β, and
// the sync leader is its one writer: it appends the log's unsynced suffix
// in order, each name ahead of the first record that uses it. Two
// invariants make recovery simple:
//
//   - a segment is synced before the next one is created (rotation syncs),
//     so after a crash only the LAST segment can hold a torn tail;
//   - a valid record prefix of the WAL is a prefix of β, with names to
//     spare. The generic system's behaviors are prefix-closed, so that
//     prefix is a behavior, and recovery completes it as a dropped
//     connection would (recovery.go), wherever the cut fell.
//
// Recovery (scanWAL) therefore reads segments in order, stops at the first
// invalid byte of the last segment (truncating the torn tail so the next
// recovery sees a clean log), and treats an invalid byte in any earlier
// segment as corruption to be rejected, not repaired.
//
// A zero byte where a record's length would start ends a segment's records:
// no payload is empty, so every real record starts with a non-zero byte, and
// a DirDisk segment is grown ahead of its records with zeros (see dirFile).
// A zero tail is the end of the records, not a torn write; non-zero bytes
// after it are a torn tail in the last segment and corruption in any other.

var walMagic = [4]byte{'N', 'S', 'G', 'W'}

const (
	walVersion = 1
	// maxWalRecord bounds a single record payload, matching the trace
	// codec's string bound: anything larger is corruption.
	maxWalRecord = 1 << 20
	// defaultSegmentBytes rotates segments at 1 MiB.
	defaultSegmentBytes = 1 << 20
)

// SegmentFile is one open WAL segment. Bytes handed to Write are volatile
// until a later Sync returns nil: a crash may keep any prefix of them. The
// WAL writer writes a sync's records in one Write and Syncs at once, so
// that is the only window in which a segment holds unsynced bytes. Close
// does not imply Sync, which is what the crash path (closeNoSync) wants and
// why rotation and clean close Sync first. A segment is used by one
// goroutine at a time. While it is open, it may be longer than its records,
// with zeros after them (DirDisk grows its files ahead of the writes); after
// Close it holds exactly the bytes written.
type SegmentFile interface {
	io.Writer
	// Sync makes everything written so far durable.
	Sync() error
	Close() error
}

// Disk is the storage a WAL lives on. DirDisk backs it with a directory of
// real files; MemDisk is an in-memory implementation whose sync/crash
// semantics the simulator controls.
type Disk interface {
	// Segments lists existing segment names in ascending order.
	Segments() ([]string, error)
	// ReadSegment returns a segment's full contents.
	ReadSegment(name string) ([]byte, error)
	// Create creates (or truncates) a segment for writing.
	Create(name string) (SegmentFile, error)
	// Truncate shortens an existing segment to size bytes.
	Truncate(name string, size int64) error
}

func segmentName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// segmentIndex parses the index out of a segment name; ok=false for
// foreign files.
func segmentIndex(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &n); err != nil {
		return 0, false
	}
	if segmentName(n) != name {
		return 0, false
	}
	return n, true
}

// DirDisk stores segments as files in a directory. Create and Truncate
// fsync the directory (and Truncate the file) so segment metadata survives
// an OS crash — the rotation invariant "only the last segment can be torn"
// needs a synced segment's directory entry to be durable too. A segment it
// creates grows in dirGrowBytes steps of zeros ahead of its records (see
// dirFile).
type DirDisk struct{ dir string }

// NewDirDisk creates the directory if needed and returns a Disk over it.
func NewDirDisk(dir string) (*DirDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirDisk{dir: dir}, nil
}

// Dir returns the backing directory.
func (d *DirDisk) Dir() string { return d.dir }

func (d *DirDisk) Segments() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			if _, ok := segmentIndex(e.Name()); ok {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *DirDisk) ReadSegment(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dir, name))
}

func (d *DirDisk) Create(name string) (SegmentFile, error) {
	f, err := os.Create(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &dirFile{f: f}, nil
}

// dirGrowBytes is the step a DirDisk segment file grows by. An fsync that
// changes a file's size also commits the inode, and on ext4 that is most of
// the fsync's cost (DESIGN §10); a file grown ahead of its records keeps its
// size across the commits that fill it, so they fsync data only. One step
// is a default segment, so a segment that rotates at the default size
// changes its size once while open and once more when Close trims it.
const dirGrowBytes = defaultSegmentBytes

// dirFile is a DirDisk segment. Each Write is one write(2): the WAL writer
// hands a sync's records to it in one Write, so a durable commit costs one
// write(2) and one fsync. What a process kill loses is nothing written; what
// a power cut loses is every byte not yet synced, as on MemDisk.
//
// The file grows in dirGrowBytes steps: a write that would pass its length
// first extends it with Truncate, which writes no bytes and leaves a sparse
// run of zeros that the records then overwrite. A commit's fsync therefore
// finds the file's size unchanged. Close trims the file back to the bytes
// written; a process killed before it leaves records and zeros after them,
// which recovery reads as the end of the records.
type dirFile struct {
	f *os.File
	// size is the bytes handed to the file, and length the file's length:
	// zeros fill the file from size to length.
	size, length int64
	// err is the first write(2) failure, or os.ErrClosed after Close. It is
	// sticky because a failed write may have been a short one: writing the
	// records again would duplicate their head in the file.
	err error
}

func (f *dirFile) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if end := f.size + int64(len(p)); end > f.length {
		length := (end + dirGrowBytes - 1) / dirGrowBytes * dirGrowBytes
		if f.err = f.f.Truncate(length); f.err != nil {
			return 0, f.err
		}
		f.length = length
	}
	n, err := f.f.Write(p)
	f.size += int64(n)
	f.err = err
	return n, err
}

func (f *dirFile) Sync() error { return f.f.Sync() }

// Close trims the file's zeros, on the clean path and the crash path alike,
// so a closed segment holds exactly the bytes written; the trim is not
// fsynced, and a zero tail that outlives an OS crash is one recovery
// accepts.
func (f *dirFile) Close() error {
	var terr error
	if f.length > f.size {
		terr = f.f.Truncate(f.size)
	}
	f.err = os.ErrClosed
	return errors.Join(terr, f.f.Close())
}

func (d *DirDisk) Truncate(name string, size int64) error {
	path := filepath.Join(d.dir, name)
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return serr
	}
	return d.syncDir()
}

// syncDir fsyncs the directory itself, making entry creation and the
// latest truncation durable across an OS crash.
func (d *DirDisk) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// MemDisk is an in-memory Disk that models the durability boundary: bytes
// written but not yet synced are lost by Crash. The simulator freezes the
// live disk at a crash point and recovers the server from the crash copy,
// optionally keeping a seed-chosen prefix of the unsynced tail to model a
// torn write.
type MemDisk struct {
	mu     sync.Mutex
	segs   map[string]*memSegment //sgvet:guardedby mu
	frozen bool                   //sgvet:guardedby mu
}

type memSegment struct {
	data   []byte
	synced int // bytes made durable by Sync
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{segs: make(map[string]*memSegment)} }

func (d *MemDisk) Segments() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.segs))
	for n := range d.segs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (d *MemDisk) ReadSegment(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.segs[name]
	if !ok {
		return nil, fmt.Errorf("memdisk: no segment %q", name)
	}
	return append([]byte(nil), s.data...), nil
}

func (d *MemDisk) Create(name string) (SegmentFile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &memSegment{}
	if !d.frozen {
		// A dying server may still rotate after Freeze; hand it a detached
		// segment so the pinned crash-point state is never mutated (nor an
		// existing segment clobbered by a colliding name).
		d.segs[name] = s
	}
	return &memFile{d: d, s: s}, nil
}

func (d *MemDisk) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen {
		return nil
	}
	s, ok := d.segs[name]
	if !ok {
		return fmt.Errorf("memdisk: no segment %q", name)
	}
	if size < 0 || size > int64(len(s.data)) {
		return fmt.Errorf("memdisk: truncate %q to %d out of range", name, size)
	}
	s.data = s.data[:size]
	if s.synced > int(size) {
		s.synced = int(size)
	}
	return nil
}

// Freeze makes every subsequent write and sync a silent no-op: the disk
// state is pinned at the crash point while the dying server's goroutines
// finish. The frozen contents stay readable.
func (d *MemDisk) Freeze() {
	d.mu.Lock()
	d.frozen = true
	d.mu.Unlock()
}

// SetSegment installs raw segment bytes (fully synced); the fuzzer and
// tests use it to plant arbitrary WAL images.
func (d *MemDisk) SetSegment(name string, data []byte) {
	d.mu.Lock()
	d.segs[name] = &memSegment{data: append([]byte(nil), data...), synced: len(data)}
	d.mu.Unlock()
}

// memPadBytes is the boundary Crash zero-pads the last segment's image to.
// A killed DirDisk leaves zeros up to its next dirGrowBytes step; a page of
// them exercises the same recovery path at a fraction of the memory, which
// matters to tests that hold a crash image for every tear point.
const memPadBytes = 4 << 10

// Crash returns the disk a process crash would leave behind: every segment
// keeps its synced prefix, and the segment with unsynced bytes (only the
// last can have any, by the rotation invariant) additionally keeps
// keepTail bytes of its unsynced tail to model a torn in-flight write. The
// last segment's image is then zero-padded to a memPadBytes boundary, as a
// killed DirDisk leaves its grown file.
func (d *MemDisk) Crash(keepTail int) *MemDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := &MemDisk{segs: make(map[string]*memSegment)}
	last := ""
	for n, s := range d.segs {
		keep := s.synced + keepTail
		if keep > len(s.data) {
			keep = len(s.data)
		}
		out.segs[n] = &memSegment{data: append([]byte(nil), s.data[:keep]...), synced: keep}
		last = max(last, n)
	}
	if s := out.segs[last]; s != nil {
		pad := (memPadBytes - len(s.data)%memPadBytes) % memPadBytes
		s.data = append(s.data, make([]byte, pad)...)
		s.synced = len(s.data)
	}
	return out
}

// UnsyncedBytes reports how many written bytes are not yet durable, i.e.
// the maximum useful keepTail for Crash.
func (d *MemDisk) UnsyncedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, s := range d.segs {
		n += len(s.data) - s.synced
	}
	return n
}

type memFile struct {
	d *MemDisk
	s *memSegment
}

func (f *memFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if !f.d.frozen {
		f.s.data = append(f.s.data, p...)
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if !f.d.frozen {
		f.s.synced = len(f.s.data)
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// walWriter is the WAL's one writer. An append, an interning or an object
// step writes nothing; a sync's leader copies what the WAL lacks — the
// log's unsynced suffix and the names its events use — in one Write, then
// fsyncs (sync). A clean close copies the rest.
type walWriter struct {
	srv    *Server
	segMax int

	// mu guards what sync callers, close and WALError share outside syncMu.
	mu sync.Mutex
	// err is sticky: the first write/sync failure, surfaced on every call.
	err error //sgvet:guardedby mu
	// settler parks a settling sync leader in the netpoller (see settle).
	// The first leader to settle makes it; close and closeNoSync, which run
	// when no session is left to lead a sync, release it.
	settler *settler //sgvet:guardedby mu

	// syncMu serializes sync callers. Its holder, a leader or close, is the
	// only code that encodes a record or touches a segment.
	syncMu sync.Mutex
	// cur is the open segment, curSize the bytes written to it, and nextIdx
	// the next one's index.
	cur              SegmentFile //sgvet:guardedby syncMu
	curSize, nextIdx int         //sgvet:guardedby syncMu
	// txN and objN are the tree's transaction and object counts the
	// definitions framed so far reach.
	txN, objN int //sgvet:guardedby syncMu
	// buf holds a segment header and then the records framed since the last
	// write, body the encoded events of the batch being framed, and rec the
	// payload being framed.
	buf, body, rec []byte //sgvet:guardedby syncMu
	// syncTimes are how long the last two fsyncs took on the Hooks clock,
	// the latest first; a settle lasts at most as long as the shorter.
	syncTimes [2]time.Duration //sgvet:guardedby syncMu
	// arrived counts sync callers, and began is what arrived was when the
	// last fsync began.
	arrived, began atomic.Uint64
	// durableLog is the log length the last completed fsync covered: where
	// the next copy starts, the mark a sync caller's target is held to, and
	// the snapshot cut's disk bound. It is stored before the committers that
	// fsync covers are woken.
	durableLog atomic.Int64
	// rounds counts the netpoll rounds sync leaders have settled for; it is
	// atomic so that a test can watch a leader that holds syncMu.
	rounds atomic.Int64
}

// newWalWriter opens segment firstIndex of s's WAL behind what s holds: its
// log and its names are durable, read back from the WAL or about to be
// synced in full.
func newWalWriter(s *Server, firstIndex int) (*walWriter, error) {
	w := &walWriter{srv: s, segMax: s.opts.WALSegmentBytes, nextIdx: firstIndex}
	if w.segMax <= 0 {
		w.segMax = defaultSegmentBytes
	}
	s.mu.RLock()
	w.txN, w.objN = s.tr.NumTx(), s.tr.NumObjects()
	s.mu.RUnlock()
	w.durableLog.Store(int64(s.log.len()))
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.rotate(); err != nil {
		return nil, err
	}
	w.buf = binary.AppendUvarint(append([]byte(nil), walMagic[:]...), walVersion)
	return w, nil
}

// appendFrame appends payload framed as one record. It is the WAL's one
// framing: the writer frames every record with it.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// rotate seals the current segment, if any, and creates the next, empty:
// its first write brings its header.
//
//sgvet:holds w.syncMu
func (w *walWriter) rotate() error {
	if w.cur != nil {
		if err := w.cur.Sync(); err != nil {
			return err
		}
		if err := w.cur.Close(); err != nil {
			return err
		}
	}
	f, err := w.srv.opts.WAL.Create(segmentName(w.nextIdx))
	if err != nil {
		return err
	}
	w.cur, w.curSize = f, 0
	w.nextIdx++
	return nil
}

// writeSuffix copies what the WAL lacks into records and writes them. The
// log's events from durableLog on become WalEvents records, encoded from
// the log's packed records in place and split only where one would pass
// maxWalRecord, each behind the definitions of the names its events are
// the first to use; with all, the rest of the tree's names follow. It
// returns the log length the records reach.
//
//sgvet:holds w.syncMu
func (w *walWriter) writeSuffix(all bool) (int, error) {
	v := w.srv.log.view()
	w.body = w.body[:0]
	n, needTx, needObj := 0, 0, 0
	for i := int(w.durableLog.Load()); i < v.n; {
		recs := v.recs(i)
		for _, r := range recs {
			mark := len(w.body)
			w.body = event.AppendWalPacked(w.body, r, v.strs)
			if n > 0 && 1+binary.MaxVarintLen64+len(w.body) > maxWalRecord {
				w.frameEvents(mark, n, needTx, needObj)
				n, needTx, needObj = 0, 0, 0
			}
			n++
			needTx = max(needTx, int(r.Tx)+1)
			if r.Kind == event.InformCommit || r.Kind == event.InformAbort {
				needObj = max(needObj, int(r.X)+1)
			}
		}
		i += len(recs)
	}
	if n > 0 {
		w.frameEvents(len(w.body), n, needTx, needObj)
	}
	if all {
		w.defs(math.MaxInt, math.MaxInt)
	}
	return v.n, w.write()
}

// frameEvents frames the first n events gathered in body, which end at
// end, behind the definitions of the transactions below tx and the objects
// below obj that the WAL lacks.
//
//sgvet:holds w.syncMu
func (w *walWriter) frameEvents(end, n, tx, obj int) {
	w.defs(tx, obj)
	w.rec = append(event.AppendWalEventsHead(w.rec[:0], n), w.body[:end]...)
	w.buf = appendFrame(w.buf, w.rec)
	w.body = w.body[:copy(w.body, w.body[end:])]
}

// defs frames the definitions of the transactions below tx and the objects
// below obj that the WAL lacks, in ID order, each object ahead of the first
// access definition that names it.
//
//sgvet:holds w.syncMu
func (w *walWriter) defs(tx, obj int) {
	s := w.srv
	s.mu.RLock()
	defer s.mu.RUnlock()
	for ; w.txN < min(tx, s.tr.NumTx()); w.txN++ {
		t := tname.TxID(w.txN)
		x, op := s.tr.AccessObject(t), spec.Op{}
		if x != tname.NoObj {
			w.objects(s.tr, int(x)+1)
			op = s.tr.AccessOp(t)
		}
		w.rec = event.AppendWalTxDef(w.rec[:0], s.tr.Parent(t), s.tr.Label(t), x, op)
		w.buf = appendFrame(w.buf, w.rec)
	}
	w.objects(s.tr, min(obj, s.tr.NumObjects()))
}

// objects frames the definitions of the objects below n that the WAL
// lacks, reading them from tr, which the caller holds read-locked.
//
//sgvet:holds w.syncMu
func (w *walWriter) objects(tr *tname.Tree, n int) {
	for ; w.objN < n; w.objN++ {
		x := tname.ObjID(w.objN)
		w.rec = event.AppendWalObjectDef(w.rec[:0], tr.ObjectLabel(x), tr.Spec(x).Name())
		w.buf = appendFrame(w.buf, w.rec)
	}
}

// write hands the records framed since the last write to the segment in one
// Write, after a rotation when they would take a segment that holds records
// past segMax; a segment's first write brings its header.
//
//sgvet:holds w.syncMu
func (w *walWriter) write() error {
	out := w.buf[headerLen():]
	if len(out) == 0 {
		return nil
	}
	if w.curSize > headerLen() && w.curSize+len(out) > w.segMax {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.curSize == 0 {
		out = w.buf
	}
	_, err := w.cur.Write(out)
	w.buf, w.curSize = w.buf[:headerLen()], w.curSize+len(out)
	return err
}

// sync makes the log durable through its length at the call, and it is the
// group commit: the certifier's rule (certifier.waitCertified) applied to
// fsyncs. A caller notes its target and queues on syncMu; whoever holds it
// finds the durable mark already past its target (some fsync that began
// after its events were appended covered them) and returns without I/O, or
// leads: it settles (see settle), so that peers a hop away from their own
// COMMITs append them and queue behind it, then copies the log's unsynced
// suffix (writeSuffix), fsyncs once for all of it and publishes the new
// mark. Sessions append with no WAL lock at all, so the next cohort forms
// while the fsync runs.
func (w *walWriter) sync() error {
	w.srv.metrics.WALSyncRequests.Add(1)
	target := w.srv.log.len()
	w.arrived.Add(1)

	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if int(w.durableLog.Load()) >= target {
		return w.stickyErr()
	}
	w.settle()
	arrived := w.arrived.Load()
	cohort := arrived - w.began.Swap(arrived)
	if err := w.stickyErr(); err != nil || w.cur == nil {
		// A sticky failure, or a closed writer: close synced what it owed.
		return err
	}
	end, err := w.writeSuffix(false)
	if err == nil {
		start := w.srv.opts.Hooks.Now()
		err = w.cur.Sync()
		w.syncTimes = [2]time.Duration{w.srv.opts.Hooks.Now().Sub(start), w.syncTimes[0]}
		w.srv.metrics.WALSyncs.Add(1)
		w.srv.metrics.GroupSize.Observe(int64(cohort))
	}
	if err != nil {
		return w.fail(err)
	}
	w.durableLog.Store(int64(end))
	return nil
}

// settle holds a sync leader back from its copy and fsync while peers may
// still join the cohort. On one processor the thread blocked in fsync keeps
// the only P, so a peer session one client hop and one session hop away
// from its COMMIT cannot append it during the fsync, and every commit pays
// its own. A settling leader instead parks in the netpoller round by round
// (settler.round): everything runnable runs first, and every connection
// that became ready is served, so a peer that appends its COMMIT and calls
// sync queues on syncMu and is covered by the fsync that follows. The
// settle ends at the first of:
//
//   - no other session has a top-level transaction open, so no COMMIT is
//     coming (a lone committer syncs at once);
//   - two rounds pass with the log's length unchanged: one loopback round
//     trip, a client hop and a session hop, brought nothing;
//   - it has lasted as long as the shorter of the last two fsyncs took:
//     waiting longer costs more than a second fsync would. Taking the
//     shorter keeps one stalled fsync from stretching the next settle, and
//     with it every committer queued behind it. A disk whose Sync takes no
//     time on the server's clock (MemDisk under the simulator) never
//     settles, and neither does a leader with fewer than two fsyncs timed.
//
// Followers the durable mark already covers never get here, and soundness
// is the mark's, unchanged: the leader copies the log after settling, and
// publishes the length it copied.
//
//sgvet:holds w.syncMu
//sgvet:hotpath
func (w *walWriter) settle() {
	budget := min(w.syncTimes[0], w.syncTimes[1])
	open := &w.srv.openTops
	if open.Load() == 0 || budget <= 0 {
		return
	}
	w.mu.Lock()
	if w.settler == nil && w.cur != nil {
		w.settler = newSettler()
	}
	p := w.settler
	w.mu.Unlock()
	if p == nil {
		return // the writer is closed, or no pipe could be made
	}
	seen := w.srv.log.len()
	start := w.srv.opts.Hooks.Now()
	for quiet := 0; quiet < 2 && open.Load() > 0 && w.srv.opts.Hooks.Now().Sub(start) < budget; {
		if !p.round() {
			return // the writer was closed under the leader
		}
		w.rounds.Add(1)
		if n := w.srv.log.len(); n == seen {
			quiet++
		} else {
			quiet, seen = 0, n
		}
	}
}

// settler is a pipe a settling sync leader parks on and a helper goroutine
// that writes its byte. A round kicks the helper and reads: the kick
// readies the helper to run next, so its byte is written as soon as the
// leader parks, but the read end waits in the netpoller, which the
// scheduler polls only once its run queues are empty. The leader therefore
// runs again after everything that was runnable has run, and together with
// the sessions and clients whose connections became ready. runtime.Gosched
// is not this: the yielded goroutine goes on the global run queue, which
// the scheduler takes from before it polls the network.
type settler struct {
	r, w   *os.File
	kick   chan struct{}
	done   chan struct{}
	exited chan struct{}
	rbuf   [1]byte
	wbuf   [1]byte
}

func newSettler() *settler {
	r, w, err := os.Pipe()
	if err != nil {
		return nil
	}
	p := &settler{r: r, w: w, kick: make(chan struct{}), done: make(chan struct{}), exited: make(chan struct{})}
	go p.run()
	return p
}

// run is the helper: one byte per kick until close.
func (p *settler) run() {
	defer close(p.exited)
	for {
		select {
		case <-p.kick:
			p.w.Write(p.wbuf[:]) // fails only once closed, which the leader's read reports
		case <-p.done:
			return
		}
	}
}

// round parks the caller in the netpoller once; false means the settler
// was closed.
//
//sgvet:hotpath
func (p *settler) round() bool {
	select {
	case p.kick <- struct{}{}:
	case <-p.done:
		return false
	}
	_, err := p.r.Read(p.rbuf[:])
	return err == nil
}

// close stops the helper and closes the pipe, waking a reader parked on it.
func (p *settler) close() {
	close(p.done)
	<-p.exited
	p.r.Close() //sgvet:ignore[checkederr] a pipe holds nothing to lose
	p.w.Close() //sgvet:ignore[checkederr] a pipe holds nothing to lose
}

// stickyErr reports the writer's first failure, if any, without issuing
// any I/O.
func (w *walWriter) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// fail records err as the writer's failure, unless it has one, and returns
// it.
func (w *walWriter) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return err
}

// releaseSettler stops the settler, if one was made.
func (w *walWriter) releaseSettler() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.settler != nil {
		w.settler.close()
		w.settler = nil
	}
}

// closeNoSync closes the current segment without copying or syncing
// anything — the crash path, where pretending the log's tail became durable
// would be a lie.
func (w *walWriter) closeNoSync() {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.releaseSettler()
	if w.cur != nil {
		w.cur.Close() //sgvet:ignore[checkederr] crash path: the close error is moot once the tail is deliberately not synced
		w.cur = nil
	}
}

// close copies everything the WAL lacks, names no event uses included,
// syncs it and closes the segment.
func (w *walWriter) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.releaseSettler()
	if w.cur == nil {
		return w.stickyErr()
	}
	err := w.stickyErr()
	if err == nil {
		if _, err = w.writeSuffix(true); err == nil {
			err = w.cur.Sync()
		}
	}
	err = cmp.Or(err, w.cur.Close())
	w.cur = nil
	if err != nil {
		return w.fail(err)
	}
	return nil
}

// walScan reads a WAL off a Disk straight into a name tree and an event
// log: each definition record defines its name in the tree, and each
// WalEvents record's events go into the log's records.
type walScan struct {
	tr  *tname.Tree
	log *eventLog
	// op is the record being decoded, and evs the scratch WalEvents
	// records are decoded into, packed: a record that fails part-way
	// leaves none of its events there, and the log takes them a batch of
	// whole records at a time (flush).
	op  event.WalOp
	evs event.PackedEvents
	// sessions is the largest session number a top-level definition
	// names (sessionOf).
	sessions int64
	records  int
	segments int
	// nextIdx is the segment index a writer resuming this WAL must use.
	nextIdx int
	// tornSegment/tornBytes report a truncated torn tail (last segment
	// only); tornBytes is 0 when the WAL ended cleanly. zeroBytes counts
	// the zeros trimmed from the last segment's end with it.
	tornSegment string
	tornBytes   int64
	zeroBytes   int64
}

// errWalCorrupt marks corruption outside the repairable torn tail.
var errWalCorrupt = errors.New("wal: corrupt")

// scanWAL reads every segment in order into tr and log, decoding and
// validating records against the names defined so far. An invalid suffix
// of the last segment is a torn tail: it is physically truncated away and
// the scan succeeds with what precedes it. Invalid bytes anywhere else mean
// the WAL is corrupt and recovery must refuse. Trailing zeros are not torn
// bytes: the last segment's are trimmed with its torn tail (or alone), and
// an earlier segment's, which an OS crash can leave when it loses Close's
// trim, are left in place.
func scanWAL(disk Disk, tr *tname.Tree, log *eventLog) (*walScan, error) {
	names, err := disk.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	res := &walScan{tr: tr, log: log, nextIdx: 1, segments: len(names),
		evs: event.PackedEvents{Recs: make([]logRec, 0, 2*scanBatch)}}
	prevIdx := -1
	for si, name := range names {
		idx, ok := segmentIndex(name)
		if !ok {
			return nil, fmt.Errorf("%w: unexpected file %q", errWalCorrupt, name)
		}
		// Segment indices must be contiguous (any start index is fine): a
		// hole means a whole segment of records vanished, which is
		// corruption, not something to silently skip over.
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
			// Torn tail, zero tail or both: truncate so the next recovery
			// (and the resuming writer's successors) see a clean WAL.
			torn := len(bytes.TrimRight(data[validTo:], "\x00"))
			res.zeroBytes = int64(len(data) - validTo - torn)
			if torn > 0 {
				res.tornSegment, res.tornBytes = name, int64(torn)
			}
			if validTo < headerLen() {
				// Not even a full header survived: recreate this segment
				// from scratch by reusing its index.
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

func headerLen() int { return len(walMagic) + 1 /* version uvarint, 1 byte for v1 */ }

// scanSegment decodes records from one segment image into the tree and
// the log. It returns the byte offset of the end of the last fully valid
// record (or 0 if the header itself is bad) plus an error describing the
// first invalid byte, if any; a record that fails leaves nothing behind. A
// zero byte where a record would start ends the records; it is an error
// only if a non-zero byte follows it.
//
//sgvet:ignore[lockguard] recovery is single-threaded: no session exists yet
func (sc *walScan) scanSegment(data []byte) (int, error) {
	if len(data) < headerLen() || string(data[:4]) != string(walMagic[:]) {
		return 0, errors.New("bad segment header")
	}
	if data[4] != walVersion {
		return 0, fmt.Errorf("unsupported wal version %d", data[4])
	}
	// zeros is where the segment's trailing zeros begin. Valid records end
	// at or after it, since a record may itself end in zero bytes; a
	// marker before it has non-zero bytes after it.
	zeros := len(bytes.TrimRight(data, "\x00"))
	names, objects, text := recordNames(data[headerLen():zeros])
	sc.tr.Grow(names, text)
	sc.tr.GrowObjects(objects)
	defer sc.flush()
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
		op := &sc.op
		if err := event.DecodeWalRecord(op, &sc.evs, payload, sc.tr.NumTx(), sc.tr.NumObjects()); err != nil {
			return pos, err
		}
		switch op.Kind {
		case event.WalObjectDef:
			if sc.tr.Object(op.Label) != tname.NoObj {
				// Not a torn record but a WAL no server writes: like the
				// tree's own panics, Recover's guard rejects it whole.
				panic(fmt.Sprintf("duplicate object %q", op.Label))
			}
			// The label is a view of data; the tree keeps a copy.
			sc.tr.AddObject(strings.Clone(op.Label), spec.ByName(op.SpecName))
		case event.WalTxDef:
			sc.tr.Define(op.Parent, op.Label, op.Obj, op.Op)
			if op.Parent == tname.Root {
				sc.sessions = max(sc.sessions, sessionOf(op.Label))
			}
		case event.WalEvents:
			if len(sc.evs.Recs) >= scanBatch {
				sc.flush()
			}
		}
		sc.records++
		pos = end
	}
	return pos, nil
}

// scanBatch is how many decoded events the scan gathers before the log
// takes them: 256 records, 4 KiB.
const scanBatch = 256

// flush moves the events gathered in the scratch into the log.
func (sc *walScan) flush() {
	sc.log.appendPacked(&sc.evs)
	sc.evs.Recs, sc.evs.Strs = sc.evs.Recs[:0], sc.evs.Strs[:0]
}

// recordNames frames the records of a segment's record region without
// checking or decoding them, and counts the transaction names, the
// objects and the label bytes that decoding the region defines. It stops
// at the first byte that does not frame a record, so a torn or corrupt
// region reserves no more than its bytes allow.
func recordNames(region []byte) (names, objects, text int) {
	for len(region) > 0 && region[0] != 0 {
		plen, n := binary.Uvarint(region)
		if n <= 0 || plen > maxWalRecord || n+int(plen)+4 > len(region) {
			break
		}
		if payload := region[n : n+int(plen)]; len(payload) > 0 && event.WalKind(payload[0]) != event.WalEvents {
			d, o, l := event.WalNames(payload)
			names, objects, text = names+d, objects+o, text+l
		}
		region = region[n+int(plen)+4:]
	}
	return names, objects, text
}

// isWalCorrupt reports whether err is a clean corruption rejection (as
// opposed to an I/O failure).
func isWalCorrupt(err error) bool { return errors.Is(err, errWalCorrupt) }
