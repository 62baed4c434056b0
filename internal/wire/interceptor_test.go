package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTyped boots a server whose handlers exercise the typed pipeline.
func startTyped(t *testing.T, ics ...Interceptor) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Use(ics...)
	s.Register("double", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*echoReply, error) {
		return &echoReply{Text: req.Text, N: req.N * 2}, nil
	}))
	s.Register("void", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*None, error) {
		return nil, nil
	}))
	s.Register("boom", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*None, error) {
		panic("kaboom")
	}))
	s.Register("slow", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*echoReply, error) {
		select {
		case <-time.After(time.Duration(req.N) * time.Millisecond):
			return &echoReply{Text: "finished"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

func TestTypedHandlerRoundTrip(t *testing.T) {
	_, addr := startTyped(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	if err := c.Call("double", &echoArgs{Text: "hi", N: 21}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Text != "hi" || reply.N != 42 {
		t.Errorf("reply = %+v", reply)
	}
	if err := c.Call("void", &echoArgs{}, nil); err != nil {
		t.Fatalf("void: %v", err)
	}
	// Garbage payload fails cleanly in the adapter.
	s := NewServer()
	h := Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*None, error) { return nil, nil })
	if _, err := h(context.Background(), nil, []byte("junk")); err == nil {
		t.Error("typed handler accepted garbage payload")
	}
	_ = s
}

func TestRecoveryInterceptorCatchesPanic(t *testing.T) {
	_, addr := startTyped(t, Recovery())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("boom", &echoArgs{}, nil)
	if err == nil || !strings.Contains(err.Error(), "internal error in boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The connection survives the panic.
	var reply echoReply
	if err := c.Call("double", &echoArgs{N: 1}, &reply); err != nil || reply.N != 2 {
		t.Fatalf("connection dead after panic: %+v, %v", reply, err)
	}
}

func TestTimeoutInterceptorAbortsSlowHandler(t *testing.T) {
	_, addr := startTyped(t, Timeout(20*time.Millisecond, nil))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Call("slow", &echoArgs{N: 5000}, nil)
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("slow handler not cancelled: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	// Per-method override: "slow" gets a long budget and completes.
	_, addr2 := startTyped(t, Timeout(20*time.Millisecond, map[string]time.Duration{"slow": 5 * time.Second}))
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var reply echoReply
	if err := c2.Call("slow", &echoArgs{N: 40}, &reply); err != nil || reply.Text != "finished" {
		t.Fatalf("per-method override: %+v, %v", reply, err)
	}
}

func TestCallCtxCancellationAbandonsWait(t *testing.T) {
	_, addr := startTyped(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = c.CallCtx(ctx, "slow", &echoArgs{N: 5000}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled call blocked for %v", d)
	}
	// The connection is still usable for new calls.
	var reply echoReply
	if err := c.Call("double", &echoArgs{N: 3}, &reply); err != nil || reply.N != 6 {
		t.Fatalf("connection unusable after abandoned call: %+v, %v", reply, err)
	}
}

func TestPeerDisconnectCancelsHandlerContext(t *testing.T) {
	s := NewServer()
	handlerDone := make(chan error, 1)
	s.Register("hang", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*None, error) {
		select {
		case <-ctx.Done():
			handlerDone <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			handlerDone <- nil
			return nil, nil
		}
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go c.Call("hang", &echoArgs{}, nil) // will fail when we close the conn
	time.Sleep(50 * time.Millisecond)   // let the request reach the handler
	c.Close()
	select {
	case err := <-handlerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler saw %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler context never cancelled after disconnect")
	}
}

func TestStatsCountersObservable(t *testing.T) {
	st := NewStats()
	// Stats outermost so even recovered panics are counted as errors.
	_, addr := startTyped(t, WithStats(st), Recovery())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Call("double", &echoArgs{N: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Call("boom", &echoArgs{}, nil) // recovered panic counts as an error
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
	snap := st.Snapshot()
	if len(snap) != 2 {
		t.Errorf("snapshot methods = %d", len(snap))
	}
}

func TestContextCarriesPeerAndMethod(t *testing.T) {
	s := NewServer()
	s.Register("who", Typed(func(ctx context.Context, p *Peer, req *echoArgs) (*echoReply, error) {
		cp, ok := ContextPeer(ctx)
		if !ok || cp != p {
			return nil, errors.New("peer missing from context")
		}
		m, ok := ContextMethod(ctx)
		if !ok {
			return nil, errors.New("method missing from context")
		}
		return &echoReply{Text: m}, nil
	}))
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	defer s.Close()
	c := NewClient(cc)
	defer c.Close()
	var reply echoReply
	if err := c.Call("who", &echoArgs{}, &reply); err != nil || reply.Text != "who" {
		t.Fatalf("context introspection: %+v, %v", reply, err)
	}
}

func TestSlowLogReportsOverThreshold(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	}
	_, addr := startTyped(t, SlowLog(time.Millisecond, logf))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("slow", &echoArgs{N: 20}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(lines)
	mu.Unlock()
	if n == 0 {
		t.Error("slow request not logged")
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s, addr := startTyped(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Start a request that takes ~80ms, then shut down: the drain must
	// wait for it and the client must still receive the real response.
	result := make(chan error, 1)
	go func() {
		var reply echoReply
		err := c.Call("slow", &echoArgs{N: 80}, &reply)
		if err == nil && reply.Text != "finished" {
			err = errors.New("wrong reply: " + reply.Text)
		}
		result <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("in-flight call during drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call never completed")
	}
	// New requests are rejected after drain.
	if err := c.Call("double", &echoArgs{}, nil); err == nil {
		t.Error("call accepted after shutdown")
	}
}

func TestDrainRejectsNewRequests(t *testing.T) {
	s, addr := startTyped(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("double", &echoArgs{N: 1}, nil); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	err = c.Call("double", &echoArgs{N: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("request during drain: %v", err)
	}
	if err := s.AwaitIdle(context.Background()); err != nil {
		t.Fatalf("AwaitIdle on idle server: %v", err)
	}
}
