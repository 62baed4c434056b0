package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The traced pass runs after the untraced windows, single driver, and
// records one span per layer boundary for each operation. Spans are
// taken from the benchmark's side of each boundary:
//
//   - the operation and the client call are timed where they are made;
//   - the socket round trip is timed by a wrapper on the driver's
//     connection (first request byte written to last reply byte read);
//   - the server's handle time of that very request is the delta of the
//     per-method total the server already exports;
//   - the layers below the handler, and the pure codecs and decoders,
//     are timed by calling their exported entry points directly on the
//     same input right after the operation, against a mirror of the
//     state where the layer is stateful.
//
// A replayed span keeps the timestamps at which it really ran, so it
// follows its parent in time; nesting is expressed by the parent id.

// span is one timed call into a layer.
type span struct {
	Trace  int    `json:"trace"` // operation index
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`   // <layer>.<call>; the root is op.<operation>
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	base  time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// opTrace builds one operation's span tree.
type opTrace struct {
	t     *tracer
	trace int
	next  int
}

func (t *tracer) begin() *opTrace {
	t.ops++
	return &opTrace{t: t, trace: t.ops}
}

// add records a span and returns its id for use as a parent.
func (o *opTrace) add(parent int, name string, start, end time.Time) int {
	o.next++
	o.t.spans = append(o.t.spans, span{
		Trace: o.trace, ID: o.next, Parent: parent, Name: name,
		Start: int64(start.Sub(o.t.base)), End: int64(end.Sub(o.t.base)),
	})
	return o.next
}

// addDur records a span known only by its duration (a counter delta),
// placed at start.
func (o *opTrace) addDur(parent int, name string, start time.Time, d time.Duration) int {
	return o.add(parent, name, start, start.Add(d))
}

// timed runs fn as a span.
func (o *opTrace) timed(parent int, name string, fn func()) int {
	t0 := time.Now()
	fn()
	return o.add(parent, name, t0, time.Now())
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes is the traced pass's summary. A span's self time is its
// duration minus what its child spans cover; a layer's self time in one
// operation is the sum over its spans. Layers are reported as means per
// operation, not medians: means add up (layers + residue = root
// exactly), and a layer only a minority of operations reach (mediadb on
// a cache miss) still shows. A replayed child can run longer than the
// span it is attributed to; that self time is negative and is kept, so
// replay noise cancels in the mean instead of biasing it.
type selfTimes struct {
	layerUS   map[string]float64 // mean self time per operation, by layer
	residueUS float64            // mean self time of the root: what no layer's span covers
	rootUS    float64            // mean root duration
	rootP50US float64            // median root duration, to set beside the untraced op_p50_ms
	// overrun is the share of spans whose children summed to more than
	// the span itself: how noisy the replays were.
	overrun float64
}

func (t *tracer) selfTimes() selfTimes {
	type key struct{ trace, id int }
	childSum := make(map[key]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[key{s.Trace, s.Parent}] += s.End - s.Start
		}
	}
	out := selfTimes{layerUS: make(map[string]float64)}
	var roots []float64
	overrun := 0
	for _, s := range t.spans {
		self := float64((s.End-s.Start)-childSum[key{s.Trace, s.ID}]) / 1e3
		if self < 0 {
			overrun++
		}
		if s.Parent == 0 {
			roots = append(roots, float64(s.End-s.Start)/1e3)
			out.rootUS += float64(s.End-s.Start) / 1e3
			out.residueUS += self
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out.layerUS[layer] += self
	}
	ops := float64(t.ops)
	out.rootUS, out.residueUS = ratio(out.rootUS, ops), ratio(out.residueUS, ops)
	for l := range out.layerUS {
		out.layerUS[l] = ratio(out.layerUS[l], ops)
	}
	out.rootP50US = median(roots)
	out.overrun = ratio(float64(overrun), float64(len(t.spans)))
	return out
}

// tracedConn timestamps the driver's socket: when the first byte of a
// request was handed to it and when the last byte so far was read from
// it. Between reset and snapshot exactly one request is in flight.
type tracedConn struct {
	net.Conn
	mu         sync.Mutex
	firstWrite time.Time
	lastRead   time.Time
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.firstWrite.IsZero() {
		c.firstWrite = time.Now()
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.lastRead = now
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) reset() {
	c.mu.Lock()
	c.firstWrite, c.lastRead = time.Time{}, time.Time{}
	c.mu.Unlock()
}

// roundTrip returns the socket-level interval of the request issued
// since reset, clipped to [lo, hi] (the call that issued it).
func (c *tracedConn) roundTrip(lo, hi time.Time) (time.Time, time.Time) {
	c.mu.Lock()
	w, r := c.firstWrite, c.lastRead
	c.mu.Unlock()
	if w.IsZero() || w.Before(lo) {
		w = lo
	}
	if r.IsZero() || r.After(hi) {
		r = hi
	}
	if r.Before(w) {
		r = w
	}
	return w, r
}
