package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace IDs are minted at the client when a call carries none (or at
// ingress for foreign clients): a per-process random-ish base from the
// start time, plus a counter, keeps ids unique enough to grep a request
// across client logs, server traces and room counters.
var (
	traceBase    = uint64(time.Now().UnixNano()) << 20
	traceCounter atomic.Uint64
)

// MintID returns a fresh trace id (never 0).
func MintID() uint64 {
	return traceBase + traceCounter.Add(1)
}

// Span is one timed section of a request: the body decode, the handler
// body, the room push fan-out. Start is the offset from the trace start.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Trace accumulates one request's spans as it flows client → wire →
// handler → room. It is carried in the request context (ContextWithTrace)
// so any layer can attach spans without new parameters.
type Trace struct {
	ID     uint64
	Method string
	Peer   uint64
	Begin  time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace clocked from now.
func NewTrace(id uint64, method string, peer uint64) *Trace {
	return &Trace{ID: id, Method: method, Peer: peer, Begin: time.Now()}
}

// AddSpan records a completed section.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.Begin), Dur: dur})
	t.mu.Unlock()
}

// StartSpan opens a section; the returned func closes it. Safe for
// concurrent use with other spans.
func (t *Trace) StartSpan(name string) func() {
	start := time.Now()
	return func() { t.AddSpan(name, start, time.Since(start)) }
}

// Spans returns a copy of the recorded sections, in recording order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// ctxKey keys the obs values carried in request contexts.
type ctxKey int

const (
	traceKey ctxKey = iota
	idKey
)

// ContextWithTrace installs the live trace recorder into ctx.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the request's live trace, if one is being recorded.
func TraceFrom(ctx context.Context) (*Trace, bool) {
	t, ok := ctx.Value(traceKey).(*Trace)
	return t, ok
}

// StartSpan opens a span on the context's trace; the returned func closes
// it. Without a trace in ctx both are no-ops, so instrumented code pays
// one context lookup when tracing is off.
func StartSpan(ctx context.Context, name string) func() {
	t, ok := TraceFrom(ctx)
	if !ok {
		return func() {}
	}
	return t.StartSpan(name)
}

// ContextWithID pins the trace id an outgoing call will carry, letting a
// caller correlate its own logs with the server's trace ring. Without it
// the wire client mints an id per call.
func ContextWithID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, idKey, id)
}

// IDFrom returns the caller-pinned trace id, if any.
func IDFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(idKey).(uint64)
	return id, ok
}

// TraceRecord is a completed request trace: the immutable form recorder
// rings hold and the sys.traces RPC serves.
type TraceRecord struct {
	ID     uint64
	Method string
	Peer   uint64
	Start  time.Time
	Total  time.Duration
	Err    string
	Spans  []Span
}

// Recorder keeps a ring of recent slow or errored request traces. Fast
// requests cost one duration compare; only requests crossing the
// threshold (or failing) take the ring lock.
type Recorder struct {
	threshold time.Duration // <0: record everything
	mu        sync.Mutex
	ring      []TraceRecord
	next      int
	filled    bool
	recorded  atomic.Uint64
}

// DefaultTraceRing is the ring capacity NewRecorder applies for size <= 0.
const DefaultTraceRing = 256

// NewRecorder builds a recorder keeping the last size qualifying traces.
// threshold selects which requests qualify: total latency >= threshold,
// or any error. A negative threshold records every request (tests,
// short-lived debugging); zero means "slow only if instantaneous", i.e.
// also everything — callers wanting a real bar pass one.
func NewRecorder(size int, threshold time.Duration) *Recorder {
	if size <= 0 {
		size = DefaultTraceRing
	}
	return &Recorder{threshold: threshold, ring: make([]TraceRecord, size)}
}

// Threshold returns the recorder's slow bar.
func (r *Recorder) Threshold() time.Duration { return r.threshold }

// Recorded returns how many traces have entered the ring (monotonic;
// the ring itself holds only the most recent).
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// Observe completes a trace: if it qualifies (slow or errored) it enters
// the ring, overwriting the oldest entry.
func (r *Recorder) Observe(t *Trace, total time.Duration, err error) {
	if err == nil && total < r.threshold {
		return
	}
	rec := TraceRecord{
		ID: t.ID, Method: t.Method, Peer: t.Peer,
		Start: t.Begin, Total: total, Spans: t.Spans(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	r.recorded.Add(1)
	r.mu.Lock()
	r.ring[r.next] = rec
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Recent returns up to limit recorded traces, newest first (limit <= 0:
// all retained).
func (r *Recorder) Recent(limit int) []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]TraceRecord, 0, limit)
	for i := 0; i < limit; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// Find returns the retained traces with the given id, newest first — a
// slow request is queryable by the id its client logged.
func (r *Recorder) Find(id uint64) []TraceRecord {
	var out []TraceRecord
	for _, rec := range r.Recent(0) {
		if rec.ID == id {
			out = append(out, rec)
		}
	}
	return out
}
