package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nestedsg/internal/event"
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
// WalTxDef / WalEvents). Two invariants make recovery simple:
//
//   - a segment is synced before the next one is created (rotation syncs),
//     so after a crash only the LAST segment can hold a torn tail;
//   - every atomic append the server makes is one WalEvents record, so a
//     valid record prefix of the WAL is a prefix of atomic appends.
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
// until a later Sync returns nil: an implementation may keep them in
// process memory (DirDisk and MemDisk both do), so a crash or a process
// kill loses them. Close does not imply Sync — whatever was written since
// the last Sync is no more durable after Close than before it, which is
// what the crash path (closeNoSync) wants and why rotation and clean close
// Sync first. While it is open, a segment may be longer than its records,
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
// creates stages writes in memory until Sync, and its file grows in
// dirGrowBytes steps of zeros ahead of the records (see dirFile).
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

// osFile is what a dirFile needs of the file beneath its staging buffer.
type osFile interface {
	SegmentFile
	Truncate(size int64) error
}

// dirSpillBytes is how many staged bytes a dirFile hands to the OS without
// waiting for a Sync, so a load that appends but never syncs (aborts only,
// or one long transaction) cannot grow the staging buffer without bound.
const dirSpillBytes = 64 << 10

// dirFile is a DirDisk segment. The durability contract only needs bytes
// on disk at Sync, so Write stages them in memory and Sync hands the whole
// cohort to the file in one write(2) before the fsync — the WAL writer
// appends ≈ 40 twelve-byte records per transaction, and a system call for
// each, under the event-log mutex, was most of a durable commit's CPU.
// What a process kill loses is therefore what a power cut loses: every
// byte not yet synced, exactly as on MemDisk. (An orderly Close is gentler:
// see Close.)
//
// The file grows in dirGrowBytes steps: a drain that would write past its
// length first extends it with Truncate, which writes no bytes and leaves a
// sparse run of zeros that the records then overwrite. A commit's fsync
// therefore finds the file's size unchanged. Close trims the file back to
// the bytes written; a process killed before it leaves records up to the
// last drain and zeros after them, which recovery reads as the end of the
// records.
type dirFile struct {
	// f is the *os.File; the interface lets a test count what reaches it.
	f osFile
	// mu orders staging and the write(2) that drains it, so spilled and
	// synced bytes reach the file in append order. The fsync runs with it
	// released: the WAL writer appends while a cohort's fsync is in flight.
	mu  sync.Mutex
	buf []byte //sgvet:guardedby mu
	// size is the bytes handed to the file, and length the file's length:
	// zeros fill the file from size to length.
	size   int64 //sgvet:guardedby mu
	length int64 //sgvet:guardedby mu
	// err is the first write(2) failure, or os.ErrClosed after Close. It is
	// sticky because a failed write may have been a short one: writing the
	// buffer again would duplicate its head in the file.
	err error //sgvet:guardedby mu
}

func (f *dirFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return 0, f.err
	}
	f.buf = append(f.buf, p...)
	if len(f.buf) >= dirSpillBytes {
		if err := f.drain(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// drain hands the staged bytes to the file in one write(2), unless an
// earlier one failed or the file is closed, growing the file first if the
// write would pass its end.
//
//sgvet:holds f.mu
func (f *dirFile) drain() error {
	if f.err != nil || len(f.buf) == 0 {
		return f.err
	}
	if end := f.size + int64(len(f.buf)); end > f.length {
		length := (end + dirGrowBytes - 1) / dirGrowBytes * dirGrowBytes
		if f.err = f.f.Truncate(length); f.err != nil {
			return f.err
		}
		f.length = length
	}
	n, err := f.f.Write(f.buf)
	f.size += int64(n)
	f.err = err
	f.buf = f.buf[:0]
	return f.err
}

func (f *dirFile) Sync() error {
	f.mu.Lock()
	err := f.drain()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.f.Sync()
}

// Close hands a tail staged since the last Sync to the file without an
// fsync: the bytes are then where an unbuffered file would have left them,
// in the page cache, promised to nobody. Every caller that needs them
// durable Syncs first, so this costs a write(2) on the crash path only.
// Close then trims the file's zeros, on the clean path and the crash path
// alike, so a closed segment holds exactly the bytes written; the trim is
// not fsynced, and a zero tail that outlives an OS crash is one recovery
// accepts.
func (f *dirFile) Close() error {
	f.mu.Lock()
	werr := f.drain()
	var terr error
	if f.length > f.size {
		terr = f.f.Truncate(f.size)
		f.length = f.size
	}
	if f.err == nil {
		f.err = os.ErrClosed
	}
	f.buf = nil
	f.mu.Unlock()
	return errors.Join(werr, terr, f.f.Close())
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

// walWriter appends framed records to the current segment, rotating (and
// syncing) when it grows past segMax. Event records are written under the
// event log's mutex and definition records under the server's tree write
// lock; both are ordered before mu, which serializes the appends.
type walWriter struct {
	mu      sync.Mutex
	disk    Disk
	m       *Metrics
	cur     SegmentFile //sgvet:guardedby mu
	curSize int         //sgvet:guardedby mu
	nextIdx int         //sgvet:guardedby mu
	segMax  int
	scratch []byte //sgvet:guardedby mu
	// err is sticky: the first write/sync failure, surfaced on every
	// later call.
	err error //sgvet:guardedby mu
	// records counts the records appended; logEnd is the event-log length
	// their events reach; arrived counts sync callers, and began is what
	// arrived was when the last fsync began.
	records int    //sgvet:guardedby mu
	logEnd  int    //sgvet:guardedby mu
	arrived uint64 //sgvet:guardedby mu
	began   uint64 //sgvet:guardedby mu
	// settler parks a settling sync leader in the netpoller (see settle). The
	// first leader to settle makes it; close and closeNoSync release it.
	settler *settler //sgvet:guardedby mu
	// syncMu serializes sync callers; the fsync itself runs with mu
	// RELEASED so appends never stall behind the disk (see sync).
	syncMu sync.Mutex
	// durable is the record count the last completed fsync covered, and
	// durableLog the event-log length: the snapshot cut's disk bound. It is
	// stored before the committers that fsync covers are woken.
	durable    int //sgvet:guardedby syncMu
	durableLog atomic.Int64
	// syncTimes are how long the last two fsyncs took on the now clock,
	// the latest first; a settle lasts at most as long as the shorter.
	syncTimes [2]time.Duration //sgvet:guardedby syncMu
	// rounds counts the netpoll rounds sync leaders have settled for; it is
	// atomic so that a test can watch a leader that holds syncMu.
	rounds atomic.Int64
	// open counts the sessions with a logged top-level transaction open
	// (the server's openTops), and now is the clock fsyncs are timed on.
	open *atomic.Int64
	now  func() time.Time
}

func newWalWriter(disk Disk, segMax, firstIndex int, m *Metrics, open *atomic.Int64, now func() time.Time) (*walWriter, error) {
	if segMax <= 0 {
		segMax = defaultSegmentBytes
	}
	w := &walWriter{disk: disk, m: m, segMax: segMax, nextIdx: firstIndex, open: open, now: now}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate seals the current segment and opens the next. appendRecord calls
// it with w.mu held; newWalWriter calls it on a writer no other goroutine
// can see yet, which satisfies the same exclusion.
//
//sgvet:holds w.mu
func (w *walWriter) rotate() error {
	if w.cur != nil {
		if err := w.cur.Sync(); err != nil {
			return err
		}
		if err := w.cur.Close(); err != nil {
			return err
		}
	}
	f, err := w.disk.Create(segmentName(w.nextIdx))
	if err != nil {
		return err
	}
	hdr := append([]byte(nil), walMagic[:]...)
	hdr = binary.AppendUvarint(hdr, walVersion)
	if _, err := f.Write(hdr); err != nil {
		return errors.Join(err, f.Close())
	}
	w.cur, w.curSize = f, len(hdr)
	w.nextIdx++
	return nil
}

// errEmptyRecord refuses an empty payload: its framing would start with a
// zero byte, which recovery reads as the end of a segment's records.
var errEmptyRecord = errors.New("wal: empty record payload")

// appendRecord frames and writes one payload that carries no event.
func (w *walWriter) appendRecord(payload []byte) error { return w.appendEvents(payload, 0) }

// appendEvents frames and writes one payload whose events end the event log
// at length logEnd (0 when it carries none). Errors are sticky; the server
// surfaces them rather than silently dropping durability. An empty payload
// is refused without touching the segment.
func (w *walWriter) appendEvents(payload []byte, logEnd int) error {
	if len(payload) == 0 {
		return errEmptyRecord
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.scratch = binary.AppendUvarint(w.scratch[:0], uint64(len(payload)))
	w.scratch = append(w.scratch, payload...)
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, crc32.ChecksumIEEE(payload))
	if w.curSize > len(walMagic)+1 && w.curSize+len(w.scratch) > w.segMax {
		if err := w.rotate(); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.cur.Write(w.scratch); err != nil {
		w.err = err
		return err
	}
	w.curSize += len(w.scratch)
	w.records++
	w.logEnd = max(w.logEnd, logEnd)
	return nil
}

// sync makes every record appended before the call durable, and it is the
// group commit: the certifier's rule (certifier.waitCertified) applied to
// fsyncs. A caller notes its target — the record count after its own
// records — and queues on syncMu; whoever holds it finds the durable
// watermark already past its target (some fsync that began after its
// records were appended covered them) and returns without I/O, or leads:
// it settles (see settle), so that peers a hop away from their own COMMITs
// append them and queue behind it, then fsyncs once for every record
// appended so far and publishes the new watermark. The fsync runs with mu
// RELEASED: the append path holds the event-log mutex while it writes
// records, so an fsync that held mu would stall every session, and with
// them the next cohort.
//
// If the segment is rotated away while the fsync is in flight, rotation
// has already synced it before closing, so every record this call must
// cover is durable and a racing fsync error on the closed file is not a
// durability failure.
func (w *walWriter) sync() error {
	w.m.WALSyncRequests.Add(1)
	w.mu.Lock()
	target := w.records
	w.arrived++
	w.mu.Unlock()

	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable >= target {
		return w.stickyErr()
	}
	w.settle()
	w.mu.Lock()
	cur, n, logN, cohort, err := w.cur, w.records, w.logEnd, w.arrived-w.began, w.err
	w.began = w.arrived
	w.mu.Unlock()
	if err != nil || cur == nil {
		// A sticky failure, or a closed writer: close synced what it owed.
		return err
	}
	start := w.now()
	err = cur.Sync()
	w.syncTimes = [2]time.Duration{w.now().Sub(start), w.syncTimes[0]}
	w.m.WALSyncs.Add(1)
	w.m.GroupSize.Observe(int64(cohort))
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil && w.cur == cur {
		if w.err == nil {
			w.err = err
		}
		return err
	}
	// Synced, or rotated (or closed) mid-fsync: the records are durable.
	w.durable = n
	w.durableLog.Store(int64(logN))
	return w.err
}

// settle holds a sync leader back from its fsync while peers may still join
// the cohort. On one processor the thread blocked in fsync keeps the only
// P, so a peer session one client hop and one session hop away from its
// COMMIT cannot append it during the fsync, and every commit pays its own.
// A settling leader instead parks in the netpoller round by round
// (settler.round): everything runnable runs first, and every connection
// that became ready is served, so a peer that appends its COMMIT and calls
// sync queues on syncMu and is covered by the fsync that follows. The
// settle ends at the first of:
//
//   - no other session has a top-level transaction open, so no COMMIT is
//     coming (a lone committer syncs at once);
//   - two rounds pass with no record appended: one loopback round trip,
//     a client hop and a session hop, brought nothing;
//   - it has lasted as long as the shorter of the last two fsyncs took:
//     waiting longer costs more than a second fsync would. Taking the
//     shorter keeps one stalled fsync from stretching the next settle, and
//     with it every committer queued behind it. A disk whose Sync takes no
//     time on the server's clock (MemDisk under the simulator) never
//     settles, and neither does a leader with fewer than two fsyncs timed.
//
// Followers the watermark already covers never get here, and soundness is
// the watermark's, unchanged: the leader reads the record count it
// publishes after settling, before its fsync begins.
//
//sgvet:holds w.syncMu
//sgvet:hotpath
func (w *walWriter) settle() {
	budget := min(w.syncTimes[0], w.syncTimes[1])
	if w.open.Load() == 0 || budget <= 0 {
		return
	}
	w.mu.Lock()
	if w.settler == nil && w.cur != nil {
		w.settler = newSettler()
	}
	p, seen := w.settler, w.records
	w.mu.Unlock()
	if p == nil {
		return // the writer is closed, or no pipe could be made
	}
	start := w.now()
	for quiet := 0; quiet < 2 && w.open.Load() > 0 && w.now().Sub(start) < budget; {
		if !p.round() {
			return // the writer was closed under the leader
		}
		w.rounds.Add(1)
		w.mu.Lock()
		n := w.records
		w.mu.Unlock()
		if n == seen {
			quiet++
		} else {
			quiet, seen = 0, n
		}
	}
}

// releaseSettler stops the settler, if one was made; a leader parked in it
// wakes and fsyncs at once.
//
//sgvet:holds w.mu
func (w *walWriter) releaseSettler() {
	if w.settler != nil {
		w.settler.close()
		w.settler = nil
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

// closeNoSync closes the current segment without a final sync — the crash
// path, where pretending the tail became durable would be a lie.
func (w *walWriter) closeNoSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.releaseSettler()
	if w.cur != nil {
		w.cur.Close() //sgvet:ignore[checkederr] crash path: the close error is moot once the tail is deliberately not synced
		w.cur = nil
	}
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.releaseSettler()
	if w.cur == nil {
		return w.err
	}
	serr := w.cur.Sync()
	cerr := w.cur.Close()
	w.cur = nil
	if w.err == nil {
		if serr != nil {
			w.err = serr
		} else if cerr != nil {
			w.err = cerr
		}
	}
	return w.err
}

// walScan is the result of reading a WAL off a Disk.
type walScan struct {
	// defs holds the decoded definition records in WAL order, and events
	// the events of every WalEvents record in WAL order: the durable
	// behavior prefix.
	defs    []event.WalOp
	events  event.Behavior
	records int
	// numTx and numObj count the names defined so far, the root T0
	// included: the references a record may make.
	numTx, numObj int
	segments      int
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

// scanWAL reads every segment in order, decoding and validating records
// against running (numTx, numObjects) counts. An invalid suffix of the
// last segment is a torn tail: it is physically truncated away and the
// scan succeeds with what precedes it. Invalid bytes anywhere else mean
// the WAL is corrupt and recovery must refuse. Trailing zeros are not torn
// bytes: the last segment's are trimmed with its torn tail (or alone), and
// an earlier segment's, which an OS crash can leave when it loses Close's
// trim, are left in place.
func scanWAL(disk Disk) (*walScan, error) {
	names, err := disk.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	res := &walScan{nextIdx: 1, segments: len(names), numTx: 1} // the root T0 always exists
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

// scanSegment decodes records from one segment image into sc, updating
// its running counts. It returns the byte offset of the end of the last
// fully valid record (or 0 if the header itself is bad) plus an error
// describing the first invalid byte, if any; a record that fails leaves
// nothing in sc. A zero byte where a record would start ends the records;
// it is an error only if a non-zero byte follows it.
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
	defs, events := recordCounts(data[headerLen():zeros])
	sc.defs = reserve(sc.defs, defs)
	sc.events = reserve(sc.events, events)
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
		op, events, err := event.DecodeWalOpInto(sc.events, payload, sc.numTx, sc.numObj)
		if err != nil {
			return pos, err
		}
		sc.events = events
		switch op.Kind {
		case event.WalObjectDef:
			sc.numObj++
			sc.defs = append(sc.defs, op)
		case event.WalTxDef:
			sc.numTx++
			sc.defs = append(sc.defs, op)
		case event.WalEvents:
			// No new names.
		}
		sc.records++
		pos = end
	}
	return pos, nil
}

// recordCounts frames the records of a segment's record region without
// checking or decoding them, and counts the definition records and the
// events the WalEvents records declare: what decoding the region appends.
// It stops at the first byte that does not frame a record, so a torn or
// corrupt region reserves no more than its bytes allow.
func recordCounts(region []byte) (defs, events int) {
	for len(region) > 0 && region[0] != 0 {
		plen, n := binary.Uvarint(region)
		if n <= 0 || plen > maxWalRecord || n+int(plen)+4 > len(region) {
			break
		}
		if k, ok := event.WalEventsCount(region[n : n+int(plen)]); ok {
			events += k
		} else {
			defs++
		}
		region = region[n+int(plen)+4:]
	}
	return defs, events
}

// reserve returns s with room for n more elements. When it must grow, it
// at least doubles, so reserving segment by segment copies each element
// a bounded number of times.
func reserve[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// isWalCorrupt reports whether err is a clean corruption rejection (as
// opposed to an I/O failure).
func isWalCorrupt(err error) bool { return errors.Is(err, errWalCorrupt) }
