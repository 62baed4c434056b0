package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestMintIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := MintID()
		if id == 0 {
			t.Fatal("MintID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestTraceSpans(t *testing.T) {
	tr := &Trace{ID: 42, Method: "room.choice", Peer: 7, Begin: time.Now()}
	ctx := context.WithValue(context.Background(), TraceKey{}, tr)
	sp := StartSpan(ctx, "decode")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.AddSpan("push", time.Now(), 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "decode" || spans[0].Dur <= 0 {
		t.Fatalf("decode span = %+v", spans[0])
	}
	if spans[1].Name != "push" || spans[1].Dur != 5*time.Millisecond {
		t.Fatalf("push span = %+v", spans[1])
	}
	// Spans returns a copy: mutating it must not affect the trace.
	spans[0].Name = "mutated"
	if tr.Spans()[0].Name != "decode" {
		t.Fatal("Spans returned a live reference")
	}
}

func TestContextTraceRoundTrip(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("empty context reported a trace")
	}
	// StartSpan without a trace is a safe no-op.
	StartSpan(ctx, "nothing").End()

	tr := &Trace{ID: 1, Method: "m", Peer: 2, Begin: time.Now()}
	ctx = context.WithValue(ctx, TraceKey{}, tr)
	got, ok := TraceFrom(ctx)
	if !ok || got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	StartSpan(ctx, "work").End()
	if len(tr.Spans()) != 1 {
		t.Fatal("context StartSpan did not record on the trace")
	}

	if _, ok := IDFrom(context.Background()); ok {
		t.Fatal("empty context reported a pinned id")
	}
	idCtx := ContextWithID(context.Background(), 99)
	if id, ok := IDFrom(idCtx); !ok || id != 99 {
		t.Fatalf("pinned id = %d, %v; want 99, true", id, ok)
	}
}

// requestCtx answers TraceKey from a field, as the server's request
// context does: finding the trace allocates nothing.
type requestCtx struct {
	context.Context
	tr Trace
}

func (c *requestCtx) Value(key any) any {
	if _, ok := key.(TraceKey); ok {
		return &c.tr
	}
	return c.Context.Value(key)
}

// TestSpanAllocatesNothing: opening and closing a span allocates nothing,
// on a request context and on one without a trace, and a span past the
// trace's inline capacity is counted as dropped, not kept.
func TestSpanAllocatesNothing(t *testing.T) {
	req := &requestCtx{Context: context.Background(), tr: Trace{ID: 1, Begin: time.Now()}}
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"request", req}, {"no trace", context.Background()}} {
		if got := testing.AllocsPerRun(100, func() { StartSpan(c.ctx, "span").End() }); got != 0 {
			t.Errorf("%s context: StartSpan+End allocated %v times, want 0", c.name, got)
		}
	}
	// AllocsPerRun's warm-up run and 100 measured runs went to the trace.
	spans := req.tr.Spans()
	if len(spans) != MaxSpans || req.tr.Dropped() != 101-MaxSpans {
		t.Fatalf("%d spans kept, %d dropped; want %d kept, %d dropped", len(spans), req.tr.Dropped(), MaxSpans, 101-MaxSpans)
	}
	rec := NewRecorder(1, -1)
	rec.Observe(&req.tr, time.Millisecond, nil)
	if got := rec.Recent(0)[0]; len(got.Spans) != MaxSpans || got.Dropped != 101-MaxSpans {
		t.Fatalf("recorded %d spans, %d dropped", len(got.Spans), got.Dropped)
	}
}

func TestRecorderThreshold(t *testing.T) {
	rec := NewRecorder(8, 10*time.Millisecond)
	if rec.threshold != 10*time.Millisecond {
		t.Fatalf("Threshold = %v", rec.threshold)
	}
	// Fast and clean: skipped.
	rec.Observe(&Trace{ID: 1, Method: "fast", Begin: time.Now()}, time.Millisecond, nil)
	// Slow: recorded.
	rec.Observe(&Trace{ID: 2, Method: "slow", Begin: time.Now()}, 20*time.Millisecond, nil)
	// Fast but errored: recorded.
	rec.Observe(&Trace{ID: 3, Method: "bad", Begin: time.Now()}, time.Millisecond, errors.New("boom"))
	if got := rec.recorded.Load(); got != 2 {
		t.Fatalf("Recorded = %d, want 2", got)
	}
	recent := rec.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("Recent = %d records, want 2", len(recent))
	}
	// Newest first.
	if recent[0].ID != 3 || recent[1].ID != 2 {
		t.Fatalf("order = %d, %d; want 3, 2", recent[0].ID, recent[1].ID)
	}
	if recent[0].Err != "boom" {
		t.Fatalf("Err = %q", recent[0].Err)
	}
}

func TestRecorderRecordEverything(t *testing.T) {
	rec := NewRecorder(8, -1)
	rec.Observe(&Trace{ID: 1, Method: "m", Begin: time.Now()}, 0, nil)
	if rec.recorded.Load() != 1 {
		t.Fatal("negative threshold did not record a zero-latency request")
	}
}

func TestRecorderRingWrapsAndFinds(t *testing.T) {
	rec := NewRecorder(4, -1)
	for i := 1; i <= 10; i++ {
		rec.Observe(&Trace{ID: uint64(i), Method: fmt.Sprintf("m%d", i), Begin: time.Now()}, time.Duration(i), nil)
	}
	recent := rec.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("retained %d, want ring size 4", len(recent))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
	if got := rec.Recent(2); len(got) != 2 || got[0].ID != 10 || got[1].ID != 9 {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if found := rec.Find(8); len(found) != 1 || found[0].Method != "m8" {
		t.Fatalf("Find(8) = %+v", found)
	}
	if found := rec.Find(2); len(found) != 0 {
		t.Fatalf("Find(2) found an evicted trace: %+v", found)
	}
}
