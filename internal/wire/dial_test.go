package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func TestDialContextCanceled(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := DialContext(ctx, l.Addr().String()); err == nil {
		t.Fatal("DialContext succeeded with a canceled context")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled dial took %v, want immediate", d)
	}
}

// TestClientDoneSignalsTransportDeath checks the Done channel — the
// reconnect supervisor's wake-up — fires when the connection dies, and
// that calls afterwards fail with the typed ErrClosed.
func TestClientDoneSignalsTransportDeath(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
		t.Fatal("Done fired on a healthy connection")
	default:
	}
	c.Close()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never fired after Close")
	}
	if err := c.Call("echo", &echoArgs{Text: "x"}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call after death = %v, want ErrClosed", err)
	}
}

// TestDefaultCallTimeout checks SetCallTimeout bounds calls that carry
// no deadline of their own — the guard against a silently partitioned
// server hanging every RPC forever.
func TestDefaultCallTimeout(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	s.Register("hang", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { close(release); s.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(150 * time.Millisecond)
	start := time.Now()
	err = c.Call("hang", &echoArgs{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung call returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("call timed out after %v, want ~150ms", d)
	}
	// An explicit caller deadline wins over the default.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if err := c.CallCtx(ctx, "hang", &echoArgs{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call with caller deadline = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("caller deadline took %v", d)
	}
}

// TestCallTimeoutCoversHandshake pins the default deadline to the whole
// call, handshake wait included: a peer that accepts the connection but
// never reads (a net.Pipe end nobody serves) must fail Call and CallRaw
// with DeadlineExceeded instead of wedging them.
func TestCallTimeoutCoversHandshake(t *testing.T) {
	far, near := net.Pipe()
	defer far.Close()
	c := NewClient(near)
	defer c.Close()
	c.SetCallTimeout(100 * time.Millisecond)
	for name, call := range map[string]func() error{
		"Call": func() error { return c.Call("echo", &echoArgs{}, nil) },
		"CallRaw": func() error {
			_, err := c.CallRaw(context.Background(), "echo", nil)
			return err
		},
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s against a silent peer = %v, want deadline exceeded", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked 5s after a 100ms call timeout", name)
		}
	}
}
