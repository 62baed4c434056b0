package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// stepSystem is a server over an empty store with handlers mounted
// behind its request step (a name already registered is replaced, so
// a test can give a real method's admission class a handler it
// controls), and a dial func for bare wire clients to it.
func stepSystem(t *testing.T, o Options, handlers map[string]wire.Handler, tune ...func(*Server)) (*Server, func() *wire.Client) {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWith(m, o)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range handlers {
		srv.Register(name, h)
	}
	for _, f := range tune {
		f(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, func() *wire.Client {
		t.Helper()
		c, err := wire.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

// deadline tunes a server's request deadline (requestTimeout).
func deadline(d time.Duration) func(*Server) {
	return func(s *Server) { s.timeout = d }
}

// slowBar tunes a server's slow bar (slowRequest), for the slow log and
// the trace ring alike; 0 makes every request slow, so the ring keeps
// it and the slow log prints it (mute Logf).
func slowBar(d time.Duration) func(*Server) {
	return func(s *Server) {
		s.slow = d
		s.tracer = obs.NewRecorder(obs.DefaultTraceRing, d)
	}
}

// call invokes a stepSystem method with an empty body.
func call(ctx context.Context, c *wire.Client, method string) error {
	return c.CallCtx(ctx, method, &wire.None{}, nil)
}

// answer is a handler that succeeds with an empty response.
func answer(context.Context, *wire.Peer, []byte) (any, error) { return nil, nil }

// boom is a handler that panics.
func boom(context.Context, *wire.Peer, []byte) (any, error) { panic("kaboom") }

// blocking returns a handler that waits for release (or its context).
func blocking(release <-chan struct{}) wire.Handler {
	return func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitFor polls cond for up to a second — cheap synchronization with
// requests that reach the limiter at an unknown moment.
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

// TestOneDurationPerRequest pins that the request step reads one end
// time: Stats, the trace ring and the slow log all carry the same
// duration for one request.
func TestOneDurationPerRequest(t *testing.T) {
	var mu sync.Mutex
	var logged []time.Duration
	logf := func(format string, args ...any) {
		if len(args) == 0 || args[0] != proto.MListDocuments {
			return
		}
		for _, a := range args {
			if d, ok := a.(time.Duration); ok {
				mu.Lock()
				logged = append(logged, d)
				mu.Unlock()
			}
		}
	}
	srv, dial := stepSystem(t, Options{Logf: logf}, nil, slowBar(0))
	const pinned = uint64(0x5106)
	ctx := obs.ContextWithID(context.Background(), pinned)
	var resp proto.ListDocumentsResp
	if err := dial().CallCtx(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	ms := srv.Stats().Method(proto.MListDocuments)
	recs := srv.Tracer().Find(pinned)
	mu.Lock()
	defer mu.Unlock()
	if ms.Requests != 1 || len(recs) != 1 || len(logged) != 1 {
		t.Fatalf("%d requests counted, %d traces kept, %d durations logged; want one each", ms.Requests, len(recs), len(logged))
	}
	if ms.TotalLatency != recs[0].Total || ms.TotalLatency != logged[0] {
		t.Fatalf("one request, three durations: stats %v, trace %v, slow log %v", ms.TotalLatency, recs[0].Total, logged[0])
	}
}

// TestPanicBecomesErrorResponse: a handler panic is recovered into an
// error response on a connection that survives it, counts as an error
// in Stats and enters the trace ring.
func TestPanicBecomesErrorResponse(t *testing.T) {
	srv, dial := stepSystem(t, Options{}, map[string]wire.Handler{"boom": boom, "ok": answer})
	c := dial()
	const pinned = uint64(0xb00)
	err := call(obs.ContextWithID(context.Background(), pinned), c, "boom")
	if err == nil || !strings.Contains(err.Error(), "internal error in boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The connection survives the panic.
	if err := call(context.Background(), c, "ok"); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
	if ms := srv.Stats().Method("boom"); ms.Requests != 1 || ms.Errors != 1 {
		t.Errorf("boom stats = %+v, want 1 request, 1 error", ms)
	}
	recs := srv.Tracer().Find(pinned)
	if len(recs) != 1 || !strings.Contains(recs[0].Err, "internal error in boom") {
		t.Errorf("panicked request's traces = %+v, want one carrying the error", recs)
	}
}

func TestStatsCountersObservable(t *testing.T) {
	srv, dial := stepSystem(t, Options{}, map[string]wire.Handler{"double": answer, "boom": boom})
	c := dial()
	for i := 0; i < 5; i++ {
		if err := call(context.Background(), c, "double"); err != nil {
			t.Fatal(err)
		}
	}
	_ = call(context.Background(), c, "boom") // recovered panic counts as an error
	st := srv.Stats()
	ms := st.Method("double")
	if ms.Requests != 5 || ms.Errors != 0 {
		t.Errorf("double stats = %+v", ms)
	}
	if ms.TotalLatency <= 0 || ms.MaxLatency <= 0 {
		t.Errorf("latency not recorded: %+v", ms)
	}
	if bs := st.Method("boom"); bs.Requests != 1 || bs.Errors != 1 {
		t.Errorf("boom stats = %+v", bs)
	}
	if snap := st.Snapshot(); len(snap) != 2 {
		t.Errorf("snapshot methods = %d", len(snap))
	}
}

func TestRequestTimeoutAbortsSlowHandler(t *testing.T) {
	sleeper := func(d time.Duration) wire.Handler {
		return func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
			select {
			case <-time.After(d):
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	_, dial := stepSystem(t, Options{Logf: func(string, ...any) {}},
		map[string]wire.Handler{"slow": sleeper(5 * time.Second), "quick": sleeper(5 * time.Millisecond)},
		deadline(200*time.Millisecond))
	c := dial()
	start := time.Now()
	err := call(context.Background(), c, "slow")
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("slow handler not cancelled: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	// A handler that finishes within the deadline completes.
	if err := call(context.Background(), c, "quick"); err != nil {
		t.Fatalf("handler within its deadline: %v", err)
	}
}

func TestSlowLogReportsOverThreshold(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	slow := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	}
	_, dial := stepSystem(t, Options{Logf: logf}, map[string]wire.Handler{"slow": slow}, slowBar(time.Millisecond))
	if err := call(context.Background(), dial(), "slow"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 || !strings.Contains(lines[0], "slow request slow") {
		t.Errorf("slow request not logged: %q", lines)
	}
}

// TestHandlerSeesRequestTrace: the request step puts a live trace,
// under the frame's id, in the handler's context.
func TestHandlerSeesRequestTrace(t *testing.T) {
	const pinned = uint64(0x7ace)
	seen := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		tr, ok := obs.TraceFrom(ctx)
		if !ok || tr == nil {
			return nil, errors.New("handler saw no trace in context")
		}
		if tr.ID != pinned || tr.Method != "seen" || tr.Peer != p.ID {
			return nil, fmt.Errorf("trace %d %q peer %d, want %d %q peer %d", tr.ID, tr.Method, tr.Peer, pinned, "seen", p.ID)
		}
		return nil, nil
	}
	_, dial := stepSystem(t, Options{}, map[string]wire.Handler{"seen": seen})
	if err := call(obs.ContextWithID(context.Background(), pinned), dial(), "seen"); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedContextEndsAtDeadlineAndOnDrop: a context a handler derives
// from its request context is cancelled at the request deadline and when the
// connection drops, although the request context makes its timer only
// when something first asks for Done.
func TestDerivedContextEndsAtDeadlineAndOnDrop(t *testing.T) {
	// waiter waits on a context derived from its request's, once it has
	// said so on waiting, and reports how that ended.
	waiter := func(waiting chan<- struct{}, ended chan<- error) wire.Handler {
		return func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			waiting <- struct{}{}
			select {
			case <-ctx.Done():
				ended <- ctx.Err()
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				ended <- nil
				return nil, nil
			}
		}
	}
	t.Run("deadline", func(t *testing.T) {
		ended := make(chan error, 1)
		_, dial := stepSystem(t, Options{Logf: func(string, ...any) {}},
			map[string]wire.Handler{"wait": waiter(make(chan struct{}, 1), ended)}, deadline(100*time.Millisecond))
		start := time.Now()
		err := call(context.Background(), dial(), "wait")
		if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
			t.Fatalf("derived context not ended by the request deadline: %v", err)
		}
		if got := <-ended; !errors.Is(got, context.DeadlineExceeded) {
			t.Fatalf("derived context ended with %v, want DeadlineExceeded", got)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("deadline took %v", d)
		}
	})
	t.Run("drop", func(t *testing.T) {
		waiting, ended := make(chan struct{}, 1), make(chan error, 1)
		_, dial := stepSystem(t, Options{}, map[string]wire.Handler{"wait": waiter(waiting, ended)})
		c := dial()
		go call(context.Background(), c, "wait")
		<-waiting
		start := time.Now()
		c.Close()
		select {
		case got := <-ended:
			if !errors.Is(got, context.Canceled) {
				t.Fatalf("derived context ended with %v on a dropped connection, want Canceled", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a dropped connection did not end the derived context")
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("cancellation took %v", d)
		}
	})
}

// TestErrReportsDeadlineWithoutDone: once the deadline has passed, the
// request context's Err says so, though nothing ever asked for Done and
// so no timer ever fired.
func TestErrReportsDeadlineWithoutDone(t *testing.T) {
	const timeout = 50 * time.Millisecond
	late := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("before the deadline: %w", err)
		}
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > timeout {
			return nil, fmt.Errorf("deadline %v (set %v), want within %v", d, ok, timeout)
		}
		time.Sleep(2 * timeout)
		if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("after the deadline Err = %v, want DeadlineExceeded", err)
		}
		return nil, nil
	}
	_, dial := stepSystem(t, Options{Logf: func(string, ...any) {}}, map[string]wire.Handler{"late": late}, deadline(timeout))
	if err := call(context.Background(), dial(), "late"); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerThatNeverWaitsMakesNoTimer: the request context makes its
// deadline timer only when something asks for Done. A round trip to a
// handler that never waits allocates less than one to a handler that
// looks at Done once — by the child context, its timer and its channel.
func TestHandlerThatNeverWaitsMakesNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	looks := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			return nil, nil
		}
	}
	_, dial := stepSystem(t, Options{}, map[string]wire.Handler{"never": answer, "looks": looks})
	c := dial()
	count := func(method string) float64 {
		run := func() {
			if err := call(context.Background(), c, method); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			run() // fill the codec scratch pools and the writers' buffers
		}
		return testing.AllocsPerRun(500, run)
	}
	never, waits := count("never"), count("looks")
	if waits-never < 3 {
		t.Fatalf("%v allocations per round trip to a handler that never waits, %v to one that looks at Done: want the timer's three (context, timer, channel) only in the second", never, waits)
	}
}

func TestAdmissionDisabledPassesThrough(t *testing.T) {
	var called atomic.Bool
	h := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		called.Store(true)
		return nil, nil
	}
	srv, dial := stepSystem(t, Options{MaxInflight: -1}, map[string]wire.Handler{proto.MGetImage: h})
	if err := call(context.Background(), dial(), proto.MGetImage); err != nil || !called.Load() {
		t.Fatalf("no-limits admission must pass through (err=%v, called=%v)", err, called.Load())
	}
	if got := srv.Stats().Counter(wire.CounterAdmitted); got != 0 {
		t.Fatalf("admitted counter %d with admission off, want 0", got)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	srv, dial := stepSystem(t, Options{MaxInflight: -1, PerPeerRate: 1, PerPeerBurst: 2},
		map[string]wire.Handler{proto.MGetImage: answer, proto.MStats: answer})
	ctx := context.Background()
	c := dial()
	for i := 0; i < 2; i++ {
		if err := call(ctx, c, proto.MGetImage); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	err := call(ctx, c, proto.MGetImage)
	var oe *wire.OverloadError
	if !errors.As(err, &oe) || oe.Reason != wire.ShedReasonRate {
		t.Fatalf("err = %v, want rate overload", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after %v, want positive", oe.RetryAfter)
	}
	if got := srv.Stats().Counter(wire.CounterShedRate); got != 1 {
		t.Fatalf("shed.rate counter %d, want 1", got)
	}
	// Control traffic bypasses the bucket even when it is empty.
	for i := 0; i < 5; i++ {
		if err := call(ctx, c, proto.MStats); err != nil {
			t.Fatalf("control call %d through empty bucket: %v", i, err)
		}
	}
	// A second peer has its own bucket.
	if err := call(ctx, dial(), proto.MGetImage); err != nil {
		t.Fatalf("fresh peer sheds: %v", err)
	}
}

func TestAdmissionLimiterCounters(t *testing.T) {
	release := make(chan struct{})
	srv, dial := stepSystem(t, Options{MaxInflight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second},
		map[string]wire.Handler{proto.MGetImage: blocking(release)})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one runs, one waits in the queue
		c := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(ctx, c, proto.MGetImage); err != nil {
				t.Errorf("admitted call: %v", err)
			}
		}()
		waitFor(t, func() bool { return srv.limiter.Inflight()+srv.limiter.Queued() == i+1 })
	}
	// Bulk has no reserve: a third call finds the queue full and sheds.
	if err := call(ctx, dial(), proto.MGetImage); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want overload", err)
	}
	close(release)
	wg.Wait()
	st := srv.Stats()
	if got := st.Counter(wire.CounterAdmitted); got != 2 {
		t.Fatalf("admitted counter %d, want 2", got)
	}
	if got := st.Counter(wire.CounterShedQueueFull); got != 1 {
		t.Fatalf("shed.queue_full counter %d, want 1", got)
	}
	if got := srv.limiter.Inflight(); got != 0 {
		t.Fatalf("inflight %d after handlers returned, want 0", got)
	}
}

func TestAdmissionShedRefundsToken(t *testing.T) {
	release := make(chan struct{})
	tokens := make(chan float64, 1)
	// A control method reads the peer's bucket without being charged.
	probe := func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		v, ok := p.Meta(peerBucketKey)
		if !ok {
			return nil, errors.New("peer bucket not created")
		}
		tokens <- v.(*wire.TokenBucket).Tokens()
		return nil, nil
	}
	srv, dial := stepSystem(t, Options{
		MaxInflight:  1,
		QueueDepth:   1,
		QueueTimeout: 10 * time.Millisecond,
		PerPeerRate:  0.001, // negligible refill over the test's lifetime
		PerPeerBurst: 2,
	}, map[string]wire.Handler{proto.MGetImage: blocking(release), proto.MStats: probe})
	ctx := context.Background()
	c := dial()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := call(ctx, c, proto.MGetImage); err != nil {
			t.Errorf("admitted call: %v", err)
		}
	}()
	waitFor(t, func() bool { return srv.limiter.Inflight() == 1 })
	// The second call is charged a token, then shed by the limiter's
	// queue deadline. The token must come back — otherwise a shed peer is
	// double-penalized and its hinted retry may be rate-shed in turn.
	if err := call(ctx, c, proto.MGetImage); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want overload", err)
	}
	if err := call(ctx, c, proto.MStats); err != nil {
		t.Fatal(err)
	}
	if got := <-tokens; got < 1 {
		t.Fatalf("tokens %v after limiter shed, want charged token refunded", got)
	}
	close(release)
	<-done
}

// routeOnly is a Cluster seam that only routes.
type routeOnly func(ctx context.Context, p *wire.Peer, method string, payload []byte) (any, bool, error)

func (r routeOnly) Route(ctx context.Context, p *wire.Peer, method string, payload []byte) (any, bool, error) {
	return r(ctx, p, method, payload)
}
func (routeOnly) PeerClosed(*wire.Peer)            {}
func (routeOnly) RoomSeed(string) (room.Log, bool) { return room.Log{}, false }
func (routeOnly) RoomTap(string)                   {}

// TestRoutedRequestTakesNoSlot: a request the Route seam answers — an
// error like a redirect, or a result like a relayed response — is done
// before admission, so it needs no slot even when none is free.
func TestRoutedRequestTakesNoSlot(t *testing.T) {
	release := make(chan struct{})
	redirect := &wire.RedirectError{Node: "n2", Addr: "127.0.0.1:1"}
	route := routeOnly(func(ctx context.Context, p *wire.Peer, method string, payload []byte) (any, bool, error) {
		switch method {
		case "redirected":
			return nil, true, redirect
		case "relayed":
			return wire.RawResult(nil), true, nil
		}
		return nil, false, nil
	})
	srv, dial := stepSystem(t, Options{MaxInflight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second, Cluster: route},
		map[string]wire.Handler{proto.MGetImage: blocking(release), "redirected": answer, "relayed": answer})
	ctx := context.Background()
	holder := dial()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := call(ctx, holder, proto.MGetImage); err != nil {
			t.Errorf("slot holder: %v", err)
		}
	}()
	waitFor(t, func() bool { return srv.limiter.Inflight() == 1 })
	c := dial()
	if err := call(ctx, c, "redirected"); !errors.Is(err, wire.ErrRedirect) {
		t.Fatalf("redirected call err = %v, want the route's redirect", err)
	}
	if err := call(ctx, c, "relayed"); err != nil {
		t.Fatalf("relayed call: %v", err)
	}
	if q := srv.limiter.Queued(); q != 0 {
		t.Fatalf("%d requests queued for a slot, want 0", q)
	}
	if got := srv.Stats().Counter(wire.CounterAdmitted); got != 1 {
		t.Fatalf("admitted counter %d, want 1 (the slot holder only)", got)
	}
	close(release)
	<-done
}
