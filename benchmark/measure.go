package main

import (
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// numWindows is how many equal measurement windows one run is cut into;
// every windowed metric is reported as the median of its window values,
// so one disturbed window cannot move the result.
const numWindows = 10

// numDrivers is fixed at the reference host's core count so numbers stay
// comparable between hosts and commits.
const numDrivers = 2

// wireBytes counts bytes read and written on every client-side
// connection the benchmark dials (drivers, listeners, raw writers).
var wireBytes atomic.Int64

// countingConn is the net.Conn wrapper handed to client.NewOverDialer /
// NewOverResolver: what crosses it is what a participant's link carries.
type countingConn struct{ net.Conn }

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	wireBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	wireBytes.Add(int64(n))
	return n, err
}

// procSnapshot is the process-wide resource reading taken at window
// boundaries.
type procSnapshot struct {
	at         time.Time
	cpu        time.Duration // user+sys of the whole process: server and clients together
	allocBytes uint64
	wire       int64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func takeProcSnapshot() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	metrics.Read(allocSample)
	return procSnapshot{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: allocSample[0].Value.Uint64(),
		wire:       wireBytes.Load(),
	}
}

// liveHeapMiB forces collection (twice, so sync.Pool victims go too) and
// reads what survives: caches, queues and buffers the system retains.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// The reference kernel is the benchmark's yardstick for how fast the host
// is running ordinary code right now. The reference host is a few vCPUs
// of a shared machine, and for seconds to minutes at a time its
// neighbours make every workload here run 1.2-1.5x slower (a dependent
// floating-point chain keeps its speed; anything bound by throughput or
// caches does not). Each driver therefore sorts the same 4096 integers
// between operations, at most once per refKernelEvery, and every
// time-based metric of a window is divided by that window's slowdown:
// the kernel's median time over refKernelNominal. Window by window the
// kernel's time follows the workloads' (r 0.88-0.98; 0.6-0.8 on
// fetch_hot), and dividing by it cut a busy host's ten-seed quartile
// spreads from 3-21 % to 3-15 % (README.md, "Steadiness"). The kernel is
// the benchmark's own code and never changes, so a change to the program
// moves a metric by its full size. It works within 64 KiB on purpose: a
// kernel that also streamed through 256 KiB followed the choice workloads
// more closely still, but its own time then depended on what the
// previous operation had left in the second-level cache.
const (
	refKernelInts    = 4096
	refKernelEvery   = 20 * time.Millisecond
	refKernelNominal = 270 * time.Microsecond // its time on the reference host when the neighbours are quiet
)

// refKernel is one driver's copy: the same input and the same work on
// every host, run and seed.
type refKernel struct{ src, buf []int }

func newRefKernel() *refKernel {
	k := &refKernel{src: make([]int, refKernelInts), buf: make([]int, refKernelInts)}
	x := uint64(88172645463325252) // xorshift64
	for i := range k.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.src[i] = int(x >> 20)
	}
	return k
}

func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	copy(k.buf, k.src)
	sort.Ints(k.buf)
	return time.Since(t0)
}

// slowdown samples the kernel a few times in a row, for a reading where
// no driver is running (around a set-up).
func (k *refKernel) slowdown() float64 {
	var xs [5]float64
	for i := range xs {
		xs[i] = float64(k.run()) / float64(refKernelNominal)
	}
	return median(xs[:])
}

// opKind splits the primary operation for the diagnostic read/write
// medians; every kind counts toward the primary-op metrics.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	numKinds
)

// driverLog is one driver's private record of completed operations,
// bucketed by the window in which each completed.
type driverLog struct {
	lat       [numWindows][numKinds][]float64 // ms, successful ops
	attempted [numWindows]int
	failed    [numWindows]int
	kernel    [numWindows][]float64 // reference kernel times, as a share of refKernelNominal
}

// recorder routes completions to windows. phase is -1 during warm-up
// (completions are dropped) and 0..numWindows-1 while measuring.
type recorder struct {
	phase   atomic.Int32
	stop    atomic.Bool
	drivers [numDrivers]driverLog
}

func newRecorder() *recorder {
	r := &recorder{}
	r.phase.Store(-1)
	return r
}

func (r *recorder) record(driver int, kind opKind, d time.Duration, err error) {
	w := r.phase.Load()
	if w < 0 {
		return
	}
	log := &r.drivers[driver]
	log.attempted[w]++
	if err != nil {
		log.failed[w]++
		return
	}
	log.lat[w][kind] = append(log.lat[w][kind], float64(d)/float64(time.Millisecond))
}

func (r *recorder) recordKernel(driver int, d time.Duration) {
	if w := r.phase.Load(); w >= 0 {
		log := &r.drivers[driver]
		log.kernel[w] = append(log.kernel[w], float64(d)/float64(refKernelNominal))
	}
}

// hostSlowdown returns, per window, the median of both drivers' kernel
// times over the nominal time: 1.0 is the reference host left alone. A
// window in which no kernel ran (operations longer than the window) takes
// the run's median.
func (r *recorder) hostSlowdown() []float64 {
	var all []float64
	byWindow := make([][]float64, numWindows)
	for w := range byWindow {
		for d := range r.drivers {
			byWindow[w] = append(byWindow[w], r.drivers[d].kernel[w]...)
		}
		all = append(all, byWindow[w]...)
	}
	whole := 1.0
	if len(all) > 0 {
		whole = median(all)
	}
	out := make([]float64, numWindows)
	for w, xs := range byWindow {
		out[w] = whole
		if len(xs) > 0 {
			out[w] = median(xs)
		}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// value is one reported metric: the median over its windows (or its
// single reading) plus the window values, whose min-max is the run's own
// spread. A time-based metric's windows are divided by the host's
// slowdown; Raw is then the median of the windows as measured.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Raw     float64   `json:"raw,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

func windowed(unit string, windows []float64) value {
	return value{Value: median(windows), Unit: unit, Windows: windows}
}

// atHostSpeed reports a time-based metric as it would read with the
// host at its nominal speed: each window's time divided, or rate
// multiplied, by that window's slowdown.
func atHostSpeed(unit string, measured, slowdown []float64, rate bool) value {
	windows := make([]float64, len(measured))
	for w := range measured {
		if rate {
			windows[w] = measured[w] * slowdown[w]
		} else {
			windows[w] = measured[w] / slowdown[w]
		}
	}
	return value{Value: median(windows), Unit: unit, Raw: median(measured), Windows: windows}
}

// timeCalls runs fn in `samples` timed batches of `batch` calls each
// (after one untimed batch) and returns the median time per call in ns.
// Medians over batches keep a GC pause or a descheduling out of the
// reading.
func timeCalls(samples, batch int, fn func()) float64 {
	for i := 0; i < batch; i++ {
		fn()
	}
	per := make([]float64, samples)
	for s := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[s] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}
