package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The calibrated clock.
//
// Back-to-back runs of one binary on a small shared sandbox differ by far
// more than the bounds this benchmark gates on, and process CPU time moves
// in lockstep with wall time: the machine got slower, not the program. So
// before every timed chunk the harness times a fixed kernel that exercises
// what a transaction exercises — loopback TCP round trips between two
// goroutines (syscalls, netpoller, scheduler wake-ups), hash-map updates
// (plain computing) and a chain of dependent loads through 16 MB (memory
// latency) — and scales the processor's share of that chunk by
// nominalKernel / measured.
//
// The mix matters. The sandbox has two states that last from seconds to
// minutes; in the slow one computing takes 1.3 to 1.7 times as long and a
// load from memory exactly as long as before (a busy hyper-thread sibling
// would do that). Every workload is partly memory-bound — SG(β) is a
// pointer graph — so a kernel without loads over-corrects: with one, the
// widest gap between ten runs' throughput fell from 17 % to 10 % on aged
// and from 22 % to 12 % on hot (README.md, "A calibrated clock").
//
// The kernel lives only here and calls nothing of the product, so no
// product change can move it.
//
// Wall time — a timed window's, and each transaction's own latency — is
// split three ways (wallFactor): what the process spent on a processor is
// scaled by the machine's factor; what the WAL spent inside fsync — the
// disk is slow or fast independently of the processor, and the disk wrapper
// knows that time exactly, because the WAL writer runs one fsync at a time
// — is scaled by nominalFsync / measured, from small appends with fsync on
// a scratch file beside the WAL (probeDisk); and the rest, time asleep in
// lock-wait polls and client back-off, is not scaled at all: a timer takes
// as long on a slow machine as on a fast one.

// nominalKernel is what the kernel takes on the reference sandbox (2 cores,
// see README.md) in its fast state. It anchors the calibrated clock's unit;
// it is a constant of the benchmark and must never be edited, or every
// recorded baseline loses its meaning.
const nominalKernel = 14 * time.Millisecond

// nominalFsync is what one small append + fsync takes on the virtual disk
// the durable workload is reported on; like nominalKernel it anchors a unit
// and must never be edited. The sandbox's real disk moves between about
// 115 µs and 200 µs for minutes at a time, which alone moved durable's
// throughput by 20 %.
const nominalFsync = 150 * time.Microsecond

const (
	calRoundTrips = 1000
	calMapOps     = 300_000
	calChaseSteps = 30_000
	calChaseLen   = 4 << 20 // uint32 entries: 16 MB, beyond the 4 MB L2
)

// calibrator owns the loopback echo pair and the scratch the kernel works
// on, so that a measurement allocates nothing.
type calibrator struct {
	lis   net.Listener
	conn  net.Conn
	done  chan struct{}
	table map[uint32]uint32
	// chase is one cycle through calChaseLen slots in an order no
	// prefetcher guesses. It is mapped outside the Go heap: 16 MB of live
	// heap would make the collector run less often and the product faster.
	chase    []uint32
	chaseMem []byte
	pos      uint32
	buf      [64]byte

	total time.Duration // wall time spent inside kernels
	runs  int
	sum   float64 // Σ measured/nominal, for bench.cal_slowdown

	probe    *os.File  // disk probe, opened on first use
	probeUs  []float64 // what every disk probe read, for bench.fsync_probe_us
	probeBuf [512]byte
}

func newCalibrator() (*calibrator, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mem, err := syscall.Mmap(-1, 0, 4*calChaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("calibration: %w", err)
	}
	c := &calibrator{lis: lis, done: make(chan struct{}), table: make(map[uint32]uint32, 1<<12),
		chaseMem: mem, chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calChaseLen)}
	// A full-period linear congruential step (a ≡ 1 mod 4, c odd) visits
	// every slot once before it repeats.
	for i := range c.chase {
		c.chase[i] = (uint32(i)*1664525 + 1013904223) & (calChaseLen - 1)
	}
	go func() {
		defer close(c.done)
		peer, err := lis.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var b [64]byte
		for {
			if _, err := io.ReadFull(peer, b[:]); err != nil {
				return
			}
			if _, err := peer.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c.conn, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		lis.Close()
		<-c.done
		_ = syscall.Munmap(mem) // the dial error is the one to report
		return nil, err
	}
	return c, nil
}

func (c *calibrator) close() {
	c.conn.Close()
	c.lis.Close()
	<-c.done
	_ = syscall.Munmap(c.chaseMem) // nothing depends on the mapping any more
	if c.probe != nil {
		c.probe.Close()
		os.Remove(c.probe.Name())
	}
}

// diskProbes is how many append + fsync pairs one disk measurement times.
const diskProbes = 48

// probeDisk times diskProbes small appends, each followed by an fsync, on a
// scratch file in dir — the file system the WAL lives on. It returns the
// factor that converts time spent in fsync right now into time on the
// nominal disk, from the mean of the probes without the slowest tenth
// (fsync has a heavy tail, and the WAL's fsync time, which the factor
// scales, is a sum), and the process CPU time one such cycle cost.
func (c *calibrator) probeDisk(dir string) (disk float64, cycleCPU time.Duration, err error) {
	if c.probe == nil {
		f, err := os.CreateTemp(dir, "fsync-probe-")
		if err != nil {
			return 0, 0, fmt.Errorf("disk calibration: %w", err)
		}
		c.probe = f
	}
	ds := make([]float64, diskProbes)
	cpu0 := cpuTime()
	for i := range ds {
		t0 := time.Now()
		if _, err := c.probe.Write(c.probeBuf[:]); err != nil {
			return 0, 0, fmt.Errorf("disk calibration: %w", err)
		}
		if err := c.probe.Sync(); err != nil {
			return 0, 0, fmt.Errorf("disk calibration: %w", err)
		}
		ds[i] = float64(time.Since(t0))
	}
	cycleCPU = (cpuTime() - cpu0) / diskProbes
	sort.Float64s(ds)
	m := mean(ds[:diskProbes-diskProbes/10])
	c.probeUs = append(c.probeUs, m/1e3)
	if m <= 0 {
		return 1, cycleCPU, nil
	}
	return float64(nominalFsync) / m, cycleCPU, nil
}

// A transaction of a workload with a WAL blocks on the disk and is woken
// once per commit, and what a block-and-wake cycle costs the processor
// (futex, idle, interrupt, the fsync path itself) depends on the machine's
// state more than computing does: between the sandbox's fast and slow
// state durable's CPU time per transaction moved by 1.8, the kernel by 1.4
// and the disk probe's CPU time per cycle by 2.2. The probe runs exactly
// such cycles, so for these workloads walCycles of them, at the CPU time
// the probe measured, join the kernel. durable spends about as much CPU
// time in the WAL's cycles as in everything young also does, hence
// walCycles × nominalCycleCPU ≈ nominalKernel. Both are constants of the
// benchmark, like nominalKernel.
const (
	walCycles       = 300
	nominalCycleCPU = 50 * time.Microsecond
)

// measureWAL is measure for a workload with a WAL: the kernel, then the
// disk probe. It returns the machine's factor and the disk's.
func (c *calibrator) measureWAL(dir string) (machine, disk float64, err error) {
	d, err := c.timeKernel()
	if err != nil {
		return 0, 0, err
	}
	disk, cycleCPU, err := c.probeDisk(dir)
	if err != nil {
		return 0, 0, err
	}
	return walFactor(d, cycleCPU), disk, nil
}

// walFactor is the machine's factor from a kernel and a cycle measurement.
func walFactor(kernel, cycleCPU time.Duration) float64 {
	return float64(nominalKernel+walCycles*nominalCycleCPU) / float64(kernel+walCycles*cycleCPU)
}

// wallFactor is the calibration factor of a timed window's wall time:
// what was spent inside the WAL's fsync takes the disk's factor, what the
// process spent on a processor (at most the rest) the machine's, and what
// is left — time asleep — none.
func wallFactor(elapsed, cpu, syncWall time.Duration, cpuFactor, diskFactor float64) float64 {
	if elapsed <= 0 {
		return cpuFactor
	}
	if syncWall > elapsed {
		syncWall = elapsed
	}
	if cpu > elapsed-syncWall {
		cpu = elapsed - syncWall
	}
	asleep := elapsed - syncWall - cpu
	return (float64(cpu)*cpuFactor + float64(syncWall)*diskFactor + float64(asleep)) / float64(elapsed)
}

// kernel runs the fixed work once and returns how long it took.
func (c *calibrator) kernel() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < calRoundTrips; i++ {
		if _, err := c.conn.Write(c.buf[:]); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf[:]); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
	}
	x := uint32(2463534242)
	for i := 0; i < calMapOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.table[x&0xfff] += x
	}
	for i := 0; i < calChaseSteps; i++ {
		c.pos = c.chase[c.pos]
	}
	return time.Since(t0), nil
}

// timeKernel runs the kernel once and books it.
func (c *calibrator) timeKernel() (time.Duration, error) {
	d, err := c.kernel()
	if err != nil {
		return 0, err
	}
	c.total += d
	c.runs++
	c.sum += float64(d) / float64(nominalKernel)
	return d, nil
}

// measure times the kernel and returns the factor that converts durations
// observed right now into calibrated ones.
func (c *calibrator) measure() (float64, error) {
	d, err := c.timeKernel()
	if err != nil {
		return 0, err
	}
	return calFactor(d), nil
}

// calFactor is nominal / measured.
func calFactor(measured time.Duration) float64 {
	if measured <= 0 {
		return 1
	}
	return float64(nominalKernel) / float64(measured)
}

// slowdown is the mean of measured / nominal over every kernel run so far:
// how much slower than the reference this machine was during the run.
func (c *calibrator) slowdown() float64 {
	if c.runs == 0 {
		return 1
	}
	return c.sum / float64(c.runs)
}
