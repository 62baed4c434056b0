package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// startTyped boots a server whose handlers exercise the typed pipeline.
func startTyped(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
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
	if err := c.CallCtx(context.Background(), "double", &echoArgs{Text: "hi", N: 21}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Text != "hi" || reply.N != 42 {
		t.Errorf("reply = %+v", reply)
	}
	if err := c.CallCtx(context.Background(), "void", &echoArgs{}, nil); err != nil {
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
	if err := c.CallCtx(context.Background(), "double", &echoArgs{N: 3}, &reply); err != nil || reply.N != 6 {
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
	// The call fails when the conn closes; the sleep lets the request
	// reach the handler first.
	go c.CallCtx(context.Background(), "hang", &echoArgs{}, nil)
	time.Sleep(50 * time.Millisecond)
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
		err := c.CallCtx(context.Background(), "slow", &echoArgs{N: 80}, &reply)
		if err == nil && reply.Text != "finished" {
			err = errors.New("wrong reply: " + reply.Text)
		}
		result <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx, s); err != nil {
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
	if err := c.CallCtx(context.Background(), "double", &echoArgs{}, nil); err == nil {
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
	if err := c.CallCtx(context.Background(), "double", &echoArgs{N: 1}, nil); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	// The refusal is typed, so a client rotates to another endpoint
	// instead of giving its sessions up.
	err = c.CallCtx(context.Background(), "double", &echoArgs{N: 1}, nil)
	var ue *UnavailableError
	if !errors.Is(err, ErrUnavailable) || !errors.As(err, &ue) || ue.Reason != "draining" {
		t.Fatalf("request during drain: %#v, want an *UnavailableError for draining", err)
	}
	if err := s.AwaitIdle(context.Background()); err != nil {
		t.Fatalf("AwaitIdle on idle server: %v", err)
	}
}
