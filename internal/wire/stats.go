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

// methodRec is the live per-method accumulator behind MethodStats.
type methodRec struct {
	requests uint64
	errors   uint64
	total    time.Duration
	hist     *obs.Histogram
}

// snapshot derives the exported view, percentiles included.
func (r *methodRec) snapshot() MethodStats {
	hs := r.hist.Snapshot()
	return MethodStats{
		Requests:     r.requests,
		Errors:       r.errors,
		TotalLatency: r.total,
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
type Stats struct {
	mu      sync.Mutex
	methods map[string]*methodRec
	// counters maps name -> *atomic.Uint64; sync.Map keeps Add
	// lock-free on the push/write hot paths.
	counters sync.Map
}

// NewStats returns an empty collector.
func NewStats() *Stats { return &Stats{methods: make(map[string]*methodRec)} }

// Add increments the named monotonic counter by delta, creating it on
// first use. Safe for concurrent use; hot paths pay one sync.Map load.
func (st *Stats) Add(name string, delta uint64) {
	c, ok := st.counters.Load(name)
	if !ok {
		c, _ = st.counters.LoadOrStore(name, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(delta)
}

// Bind publishes a counter its owner increments itself under name, so
// a component that already counts (the payload cache) is read live
// without a second tally. Bind before serving; it replaces any counter
// already stored under name.
func (st *Stats) Bind(name string, c *atomic.Uint64) { st.counters.Store(name, c) }

// Counter returns the named counter's value (0 if never incremented).
func (st *Stats) Counter(name string) uint64 {
	if c, ok := st.counters.Load(name); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// Counters snapshots every named counter.
func (st *Stats) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	st.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// Observe records one request of method that took d and ended in err.
func (st *Stats) Observe(method string, d time.Duration, err error) {
	st.mu.Lock()
	rec := st.methods[method]
	if rec == nil {
		rec = &methodRec{hist: obs.NewHistogram()}
		st.methods[method] = rec
	}
	rec.requests++
	if err != nil {
		rec.errors++
	}
	rec.total += d
	st.mu.Unlock()
	// The histogram is internally atomic; keep it off the map lock.
	rec.hist.Observe(d)
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

// Histogram returns the named method's live latency histogram (nil if
// the method has never been called) for callers needing quantiles
// beyond the snapshot's p50/p90/p99.
func (st *Stats) Histogram(name string) *obs.Histogram {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec := st.methods[name]; rec != nil {
		return rec.hist
	}
	return nil
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
