package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTokenBucketRefill(t *testing.T) {
	b := NewTokenBucket(10, 2) // 10 tokens/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(now); !ok {
			t.Fatalf("take %d of burst refused", i)
		}
	}
	ok, ra := b.Take(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if ra <= 0 || ra > 100*time.Millisecond {
		t.Fatalf("retry-after %v, want (0, 100ms] for a 10/s bucket", ra)
	}
	// 100ms refills exactly one token.
	now = now.Add(100 * time.Millisecond)
	if ok, _ := b.Take(now); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := b.Take(now); ok {
		t.Fatal("second take admitted after a one-token refill")
	}
	// A long idle period caps at burst, not at idle × rate.
	now = now.Add(time.Hour)
	if got := func() int {
		n := 0
		for {
			ok, _ := b.Take(now)
			if !ok {
				return n
			}
			n++
		}
	}(); got != 2 {
		t.Fatalf("after long idle admitted %d, want burst (2)", got)
	}
}

func TestTokenBucketBurstDefault(t *testing.T) {
	if b := NewTokenBucket(7.2, 0); b.burst != 8 {
		t.Fatalf("derived burst %v, want ceil(rate) = 8", b.burst)
	}
	if b := NewTokenBucket(0.5, 0); b.burst != 1 {
		t.Fatalf("derived burst %v, want minimum 1", b.burst)
	}
}

func TestTokenBucketBackwardsClock(t *testing.T) {
	b := NewTokenBucket(10, 1)
	now := time.Unix(1000, 0)
	b.Take(now)
	// A clock step backwards must not refill or go negative.
	if ok, _ := b.Take(now.Add(-time.Hour)); ok {
		t.Fatal("backwards clock refilled the bucket")
	}
	if ok, _ := b.Take(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("forward progress after backwards step refused")
	}
}

func TestTokenBucketRefund(t *testing.T) {
	b := NewTokenBucket(10, 2)
	now := time.Unix(1000, 0)
	b.Take(now)
	b.Take(now)
	b.Refund()
	if got := b.Tokens(); got != 1 {
		t.Fatalf("tokens %v after refund, want 1", got)
	}
	// Refunds clamp at burst, never over-fill.
	b.Refund()
	b.Refund()
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens %v after over-refund, want clamp at burst 2", got)
	}
}

func TestTokenBucketConcurrent(t *testing.T) {
	b := NewTokenBucket(1000, 100)
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for j := 0; j < 50; j++ {
				if ok, _ := b.Take(time.Now()); ok {
					n++
				}
			}
			mu.Lock()
			admitted += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	// 400 takes against burst 100 + a few ms of refill: the exact count
	// is timing-dependent, but it can never exceed takes nor fall to 0.
	if admitted < 100 || admitted > 400 {
		t.Fatalf("admitted %d of 400, want within [100, 400]", admitted)
	}
}

func TestLimiterFastPath(t *testing.T) {
	l := NewLimiter(2, 4)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := l.Acquire(ctx, PriorityBulk, 0); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := l.Inflight(); got != 2 {
		t.Fatalf("inflight %d, want 2", got)
	}
	l.Release(time.Millisecond)
	l.Release(time.Millisecond)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after release %d, want 0", got)
	}
}

func TestLimiterQueueFullSheds(t *testing.T) {
	l := NewLimiter(1, 1)
	ctx := context.Background()
	if err := l.Acquire(ctx, PriorityBulk, 0); err != nil {
		t.Fatal(err)
	}
	// Fill the queue with a waiter.
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx, PriorityBulk, time.Second) }()
	waitFor(t, func() bool { return l.Queued() == 1 })
	// Same-priority arrival at a full queue is shed immediately.
	err := l.Acquire(ctx, PriorityBulk, time.Second)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedReasonQueueFull {
		t.Fatalf("err = %v, want queue-full overload", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("overload error does not match ErrOverloaded")
	}
	l.Release(time.Millisecond) // hands the slot to the waiter
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	l.Release(time.Millisecond)
}

func TestLimiterQueueDeadline(t *testing.T) {
	l := NewLimiter(1, 4)
	ctx := context.Background()
	if err := l.Acquire(ctx, PriorityBulk, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := l.Acquire(ctx, PriorityBulk, 20*time.Millisecond)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedReasonDeadline {
		t.Fatalf("err = %v, want deadline overload", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("shed before the queue deadline")
	}
	if got := l.Queued(); got != 0 {
		t.Fatalf("queued %d after deadline shed, want 0", got)
	}
	l.Release(time.Millisecond)
}

func TestLimiterContextCancel(t *testing.T) {
	l := NewLimiter(1, 4)
	if err := l.Acquire(context.Background(), PriorityBulk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx, PriorityBulk, 0) }()
	waitFor(t, func() bool { return l.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := l.Queued(); got != 0 {
		t.Fatalf("queued %d after cancel, want 0", got)
	}
	l.Release(time.Millisecond)
}

// TestLimiterCancelConcurrentGrantNoLeak pins the race between a
// waiter's context cancellation and a concurrent Release granting it a
// slot: whichever way the select resolves, the granted slot must end up
// back in the limiter instead of leaking (a leak here ratchets capacity
// down permanently under overload with client cancellations).
func TestLimiterCancelConcurrentGrantNoLeak(t *testing.T) {
	l := NewLimiter(1, 4)
	if err := l.Acquire(context.Background(), PriorityBulk, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx, PriorityBulk, 0) }()
	waitFor(t, func() bool { return l.Queued() == 1 })
	// Force the race: cancel the waiter and, while holding the lock so
	// abandon cannot observe the queue yet, grant it a slot exactly the
	// way a concurrent Release would.
	l.mu.Lock()
	cancel()
	w := l.queues[int(PriorityBulk)][0]
	l.queues[int(PriorityBulk)] = nil
	l.queued--
	l.inflight++
	w.ch <- nil
	l.mu.Unlock()
	switch err := <-done; {
	case err == nil:
		// The select won via the grant channel: the caller owns the slot
		// and is responsible for returning it.
		l.Release(0)
	case errors.Is(err, context.Canceled):
		// The abandon path must have returned the granted slot itself.
	default:
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if got := l.Inflight(); got != 1 {
		t.Fatalf("inflight %d after cancelled grant, want 1 (slot leaked)", got)
	}
	l.Release(time.Millisecond)
	// The returned slot is immediately reusable.
	if err := l.Acquire(context.Background(), PriorityBulk, 0); err != nil {
		t.Fatalf("reacquire after cancel: %v", err)
	}
	l.Release(time.Millisecond)
}

func TestLimiterPriorityDisplacement(t *testing.T) {
	l := NewLimiter(1, 1)
	ctx := context.Background()
	if err := l.Acquire(ctx, PriorityControl, 0); err != nil {
		t.Fatal(err)
	}
	// One control acquire in the reserve lane keeps the main slot busy
	// without touching the queue.
	bulkDone := make(chan error, 1)
	go func() { bulkDone <- l.Acquire(ctx, PriorityBulk, time.Second) }()
	waitFor(t, func() bool { return l.Queued() == 1 })
	// A control arrival past the reserve displaces the queued bulk
	// waiter instead of being shed.
	if err := l.Acquire(ctx, PriorityControl, 0); err != nil {
		t.Fatalf("control acquire into reserve: %v", err)
	}
	ctrlDone := make(chan error, 1)
	go func() { ctrlDone <- l.Acquire(ctx, PriorityControl, time.Second) }()
	err := <-bulkDone
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedReasonDisplaced {
		t.Fatalf("bulk waiter err = %v, want displaced overload", err)
	}
	l.Release(time.Millisecond)
	if err := <-ctrlDone; err != nil {
		t.Fatalf("queued control acquire: %v", err)
	}
	l.Release(time.Millisecond)
	l.Release(time.Millisecond)
}

func TestLimiterControlReserve(t *testing.T) {
	l := NewLimiter(4, 8) // reserve = 1
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, PriorityBulk, 0); err != nil {
			t.Fatalf("bulk acquire %d: %v", i, err)
		}
	}
	// The cap is exhausted for bulk but control still enters instantly.
	if err := l.Acquire(ctx, PriorityControl, 0); err != nil {
		t.Fatalf("control acquire at full cap: %v", err)
	}
	if got := l.Inflight(); got != 5 {
		t.Fatalf("inflight %d, want maxInflight+reserve = 5", got)
	}
	// A bulk release above the main cap must not promote a bulk waiter.
	bulkDone := make(chan error, 1)
	go func() { bulkDone <- l.Acquire(ctx, PriorityBulk, time.Second) }()
	waitFor(t, func() bool { return l.Queued() == 1 })
	l.Release(time.Millisecond) // inflight 5 -> 4: still at the bulk cap
	select {
	case err := <-bulkDone:
		t.Fatalf("bulk waiter granted above the main cap (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.Release(time.Millisecond) // inflight 4 -> 3: bulk waiter admitted
	if err := <-bulkDone; err != nil {
		t.Fatalf("queued bulk acquire: %v", err)
	}
	for i := 0; i < 4; i++ {
		l.Release(time.Millisecond)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight %d after draining, want 0", got)
	}
}

func TestLimiterConcurrent(t *testing.T) {
	l := NewLimiter(4, 16)
	var wg sync.WaitGroup
	var held sync.Map
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := Priority(i % int(numPriorities))
			err := l.Acquire(context.Background(), class, 50*time.Millisecond)
			if err != nil {
				var oe *OverloadError
				if !errors.As(err, &oe) {
					held.Store(i, fmt.Errorf("unexpected error: %w", err))
				}
				return
			}
			if n := l.Inflight(); n > 4+1 { // maxInflight + control reserve
				held.Store(i, fmt.Errorf("inflight %d above cap", n))
			}
			time.Sleep(time.Millisecond)
			l.Release(time.Millisecond)
		}(i)
	}
	wg.Wait()
	held.Range(func(_, v any) bool { t.Error(v); return true })
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight %d after all released, want 0", got)
	}
	if got := l.Queued(); got != 0 {
		t.Fatalf("queued %d after all released, want 0", got)
	}
}

func TestParseOverloadRoundTrip(t *testing.T) {
	for _, reason := range []string{ShedReasonQueueFull, ShedReasonDeadline, ShedReasonDisplaced, ShedReasonRate} {
		in := &OverloadError{Reason: reason, RetryAfter: 1250 * time.Millisecond}
		out, ok := ParseOverload(in.Error())
		if !ok {
			t.Fatalf("ParseOverload(%q) failed", in.Error())
		}
		if out.Reason != in.Reason || out.RetryAfter != in.RetryAfter {
			t.Fatalf("round trip %+v -> %+v", in, out)
		}
	}
	for _, bad := range []string{"", "wire: overloaded", "some other error", "wire: overloaded: x", "wire: overloaded: x; retry after soon"} {
		if _, ok := ParseOverload(bad); ok {
			t.Fatalf("ParseOverload(%q) accepted", bad)
		}
	}
}

// admitCtx builds a dispatch-shaped context carrying a method name.
func admitCtx(method string) context.Context {
	return context.WithValue(context.Background(), reqInfoKey, &reqInfo{method: method})
}

func TestAdmissionInterceptorPassthrough(t *testing.T) {
	called := false
	h := Admission(AdmissionConfig{})(func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		called = true
		return "ok", nil
	})
	if _, err := h(context.Background(), nil, nil); err != nil || !called {
		t.Fatalf("no-limits admission must pass through (err=%v, called=%v)", err, called)
	}
}

func TestAdmissionInterceptorRateLimit(t *testing.T) {
	st := NewStats()
	cfg := AdmissionConfig{
		Classes:      map[string]Priority{"db.get": PriorityBulk, "sys.stats": PriorityControl},
		PerPeerRate:  1,
		PerPeerBurst: 2,
		Stats:        st,
	}
	h := Admission(cfg)(func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		return "ok", nil
	})
	peer := &Peer{meta: map[string]any{}}
	for i := 0; i < 2; i++ {
		if _, err := h(admitCtx("db.get"), peer, nil); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	_, err := h(admitCtx("db.get"), peer, nil)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedReasonRate {
		t.Fatalf("err = %v, want rate overload", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after %v, want positive", oe.RetryAfter)
	}
	if got := st.Counter(CounterShedRate); got != 1 {
		t.Fatalf("shed.rate counter %d, want 1", got)
	}
	// Control traffic bypasses the bucket even when it is empty.
	for i := 0; i < 5; i++ {
		if _, err := h(admitCtx("sys.stats"), peer, nil); err != nil {
			t.Fatalf("control call %d through empty bucket: %v", i, err)
		}
	}
	// A second peer has its own bucket.
	if _, err := h(admitCtx("db.get"), &Peer{meta: map[string]any{}}, nil); err != nil {
		t.Fatalf("fresh peer sheds: %v", err)
	}
}

func TestAdmissionInterceptorLimiterCounters(t *testing.T) {
	st := NewStats()
	cfg := AdmissionConfig{
		Limiter:      NewLimiter(1, 0),
		QueueTimeout: 10 * time.Millisecond,
		Classes:      map[string]Priority{"db.get": PriorityBulk},
		Stats:        st,
	}
	block := make(chan struct{})
	h := Admission(cfg)(func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		<-block
		return "ok", nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := h(admitCtx("db.get"), nil, nil); err != nil {
			t.Errorf("admitted call: %v", err)
		}
	}()
	waitFor(t, func() bool { return cfg.Limiter.Inflight() == 1 })
	// Bulk reserve does not apply: the second call sheds (queue depth 0).
	_, err := h(admitCtx("db.get"), nil, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want overload", err)
	}
	close(block)
	<-done
	if got := st.Counter(CounterAdmitted); got != 1 {
		t.Fatalf("admitted counter %d, want 1", got)
	}
	if got := st.Counter(CounterShedQueueFull); got != 1 {
		t.Fatalf("shed.queue_full counter %d, want 1", got)
	}
	if got := cfg.Limiter.Inflight(); got != 0 {
		t.Fatalf("inflight %d after handler returned, want 0", got)
	}
}

func TestAdmissionInterceptorShedRefundsToken(t *testing.T) {
	cfg := AdmissionConfig{
		Limiter:      NewLimiter(1, 0),
		QueueTimeout: 10 * time.Millisecond,
		Classes:      map[string]Priority{"db.get": PriorityBulk},
		PerPeerRate:  0.001, // negligible refill over the test's lifetime
		PerPeerBurst: 2,
	}
	block := make(chan struct{})
	h := Admission(cfg)(func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		<-block
		return "ok", nil
	})
	peer := &Peer{meta: map[string]any{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := h(admitCtx("db.get"), peer, nil); err != nil {
			t.Errorf("admitted call: %v", err)
		}
	}()
	waitFor(t, func() bool { return cfg.Limiter.Inflight() == 1 })
	// Queue depth 0: the second call is charged a token, then shed by the
	// limiter. The token must come back — otherwise a shed peer is
	// double-penalized and its hinted retry may be rate-shed in turn.
	if _, err := h(admitCtx("db.get"), peer, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want overload", err)
	}
	v, ok := peer.Meta(peerBucketKey)
	if !ok {
		t.Fatal("peer bucket not created")
	}
	if got := v.(*TokenBucket).Tokens(); got < 1 {
		t.Fatalf("tokens %v after limiter shed, want charged token refunded", got)
	}
	close(block)
	<-done
}

// waitFor polls cond for up to a second — cheap synchronization with
// goroutines that enter a queue at an unknown moment.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}
