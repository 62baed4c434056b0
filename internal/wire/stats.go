package wire

import (
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/obs"
)

// MethodStats is the snapshot of one method's observed requests: flat
// counters plus the tail percentiles derived from the method's
// log-bucketed histogram (p50/p90/p99 within ~6% of true rank values).
type MethodStats struct {
	Requests uint64
	Errors   uint64
	// TotalLatency accumulates request wall time, from dispatch to the
	// handler's answer; divide by Requests for the mean (or use Mean).
	TotalLatency  time.Duration
	MaxLatency    time.Duration
	P50, P90, P99 time.Duration
}

// Mean returns the average request latency (0 with no requests).
func (ms MethodStats) Mean() time.Duration {
	if ms.Requests == 0 {
		return 0
	}
	return ms.TotalLatency / time.Duration(ms.Requests)
}

// methodRec is the live per-method accumulator behind MethodStats. Its
// fields are atomics, so a request records into it without a lock; a
// snapshot taken meanwhile may count a request in one field and not yet
// in another.
type methodRec struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	total    atomic.Int64 // nanoseconds
	hist     *obs.Histogram
}

// snapshot derives the exported view, percentiles included.
func (r *methodRec) snapshot() MethodStats {
	hs := r.hist.Snapshot()
	return MethodStats{
		Requests:     r.requests.Load(),
		Errors:       r.errors.Load(),
		TotalLatency: time.Duration(r.total.Load()),
		MaxLatency:   hs.Max,
		P50:          hs.Quantile(0.50),
		P90:          hs.Quantile(0.90),
		P99:          hs.Quantile(0.99),
	}
}

// Stats counts requests, errors and latency per method — what the
// server's request step records each request into — plus named monotonic
// counters for everything that is not a request (push fan-out, writer
// flushes, cache hits). Latencies feed per-method log-bucketed
// histograms, so snapshots report tail percentiles, not just means. A
// single Stats may be shared across servers; all methods are safe for
// concurrent use.
//
// Nothing that counts names what it counts as it goes: a counter's owner
// resolves it to a handle (Handle) and a method's request step to a
// recorder (Recorder) once, when it is built, and the message path pays
// one atomic add per count. The lock below guards only the tables those
// resolutions and the snapshots read.
type Stats struct {
	mu       sync.Mutex
	methods  map[string]*methodRec
	counters map[string]*atomic.Uint64
}

// NewStats returns an empty collector.
func NewStats() *Stats {
	return &Stats{methods: make(map[string]*methodRec), counters: make(map[string]*atomic.Uint64)}
}

// Handle returns the counter named name, made at zero on the first call
// and the same counter on every later one: its owner keeps it and adds
// to it directly. A counter exists, and Counters reports it, from the
// moment it is resolved.
func (st *Stats) Handle(name string) *atomic.Uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.counters[name]
	if c == nil {
		c = new(atomic.Uint64)
		st.counters[name] = c
	}
	return c
}

// Bind publishes a counter its owner increments itself under name, so
// a component that already counts (the payload cache) is read live
// without a second tally. Bind before serving; it replaces any counter
// already stored under name.
func (st *Stats) Bind(name string, c *atomic.Uint64) {
	st.mu.Lock()
	st.counters[name] = c
	st.mu.Unlock()
}

// Counter returns the named counter's value (0 if it does not exist).
func (st *Stats) Counter(name string) uint64 {
	st.mu.Lock()
	c := st.counters[name]
	st.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Counters snapshots every named counter.
func (st *Stats) Counters() map[string]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]uint64, len(st.counters))
	for name, c := range st.counters {
		out[name] = c.Load()
	}
	return out
}

// MethodRecorder records one method's requests into its Stats. The
// method's record — a histogram is 8 KiB — is made on its first
// request, so a method never called costs nothing and reads as absent;
// from then on the recorder holds it and Observe takes no lock.
type MethodRecorder struct {
	st   *Stats
	name string
	rec  atomic.Pointer[methodRec]
}

// Recorder returns the recorder for method name. Resolve it once, when
// the method is registered.
func (st *Stats) Recorder(name string) *MethodRecorder {
	return &MethodRecorder{st: st, name: name}
}

// Observe records one request that took d and ended in err.
func (m *MethodRecorder) Observe(d time.Duration, err error) {
	rec := m.rec.Load()
	if rec == nil {
		rec = m.st.method(m.name)
		m.rec.Store(rec)
	}
	rec.requests.Add(1)
	if err != nil {
		rec.errors.Add(1)
	}
	rec.total.Add(int64(d))
	rec.hist.Observe(d)
}

// method returns name's record, making it on the first call.
func (st *Stats) method(name string) *methodRec {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.methods[name]
	if rec == nil {
		rec = &methodRec{hist: obs.NewHistogram()}
		st.methods[name] = rec
	}
	return rec
}

// Method returns a snapshot of one method's counters and percentiles
// (zero value if the method has never been called).
func (st *Stats) Method(name string) MethodStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec := st.methods[name]; rec != nil {
		return rec.snapshot()
	}
	return MethodStats{}
}

// Snapshot copies every method's counters and derives percentiles.
func (st *Stats) Snapshot() map[string]MethodStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]MethodStats, len(st.methods))
	for name, rec := range st.methods {
		out[name] = rec.snapshot()
	}
	return out
}
