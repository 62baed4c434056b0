package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
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
	if err := c.CallCtx(context.Background(), "echo", &echoArgs{Text: "x"}, nil); !errors.Is(err, ErrClosed) {
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
	err = c.CallCtx(context.Background(), "hang", &echoArgs{}, nil)
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
// never reads (a net.Pipe end nobody serves) must fail CallCtx and CallRaw
// with DeadlineExceeded instead of wedging them.
func TestCallTimeoutCoversHandshake(t *testing.T) {
	far, near := net.Pipe()
	defer far.Close()
	c := NewClient(near)
	defer c.Close()
	c.SetCallTimeout(100 * time.Millisecond)
	for name, call := range map[string]func() error{
		"CallCtx": func() error { return c.CallCtx(context.Background(), "echo", &echoArgs{}, nil) },
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

// TestBoundedCallAllocatesNoMore: the default deadline is a pooled timer
// the call waits on beside its reply, not a context per call, so a call
// under SetCallTimeout allocates what the same call without one does.
func TestBoundedCallAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, addr := startTyped(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	call := func() {
		if err := c.CallCtx(context.Background(), "double", &echoArgs{Text: "x", N: 1}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	unbounded := testing.AllocsPerRun(2000, call)
	c.SetCallTimeout(time.Minute)
	bounded := testing.AllocsPerRun(2000, call)
	if bounded > unbounded {
		t.Errorf("a call under SetCallTimeout allocates %v times, %v without", bounded, unbounded)
	}
}

// pausingConn sleeps after each write while pause is set: the request
// is out, its reply comes back, and the call's timer fires, all before
// the caller gets to wait for either.
type pausingConn struct {
	net.Conn
	pause atomic.Int64 // ns
}

func (c *pausingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	time.Sleep(time.Duration(c.pause.Load()))
	return n, err
}

// TestTimedOutCallLeavesNoStaleTimer: a call's timer goes back to the
// pool only with an empty channel. After a call that timed out, and
// calls that find their reply and their timer's fire both waiting, a
// thousand fast calls on the same client all succeed — a fire left in a
// pooled timer would fail one of them with a deadline it never reached.
func TestTimedOutCallLeavesNoStaleTimer(t *testing.T) {
	_, addr := startTyped(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pc := &pausingConn{Conn: conn}
	c := NewClient(pc)
	defer c.Close()
	var reply echoReply
	c.SetCallTimeout(5 * time.Millisecond)
	if err := c.CallCtx(context.Background(), "slow", &echoArgs{N: 500}, &reply); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a call past its deadline returned %v, want deadline exceeded", err)
	}
	// Each racing call is followed by a fast one, which takes the timer
	// the racing call put back before a later racing call can.
	fast := func(i int) {
		t.Helper()
		pc.pause.Store(0)
		c.SetCallTimeout(time.Minute)
		if err := c.CallCtx(context.Background(), "double", &echoArgs{N: i}, &reply); err != nil {
			t.Fatalf("fast call %d after a timeout: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		pc.pause.Store(int64(25 * time.Millisecond))
		c.SetCallTimeout(5 * time.Millisecond)
		if err := c.CallCtx(context.Background(), "double", &echoArgs{N: i}, &reply); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d with its reply and its deadline both in: %v", i, err)
		}
		fast(i)
	}
	for i := 0; i < 1000; i++ {
		fast(i)
	}
}
