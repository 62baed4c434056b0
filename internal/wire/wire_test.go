package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoArgs and echoReply are the test bodies: the same two fields, the
// same hand-written codec.
type echoArgs struct {
	Text string
	N    int
}
type echoReply echoArgs

func (a *echoArgs) AppendBody(e *BodyEnc) {
	e.String(a.Text)
	e.Varint(int64(a.N))
}

func (a *echoArgs) DecodeBody(d *Dec) error {
	a.Text = d.String()
	a.N = int(d.Varint())
	return d.Err()
}

func (r *echoReply) AppendBody(e *BodyEnc)   { (*echoArgs)(r).AppendBody(e) }
func (r *echoReply) DecodeBody(d *Dec) error { return (*echoArgs)(r).DecodeBody(d) }

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Register("echo", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		var a echoArgs
		if err := DecodeBodyBytes(payload, &a); err != nil {
			return nil, err
		}
		return &echoReply{Text: a.Text, N: a.N * 2}, nil
	})
	s.Register("fail", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	s.Register("void", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		return nil, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	if err := c.Call("echo", &echoArgs{Text: "hi", N: 21}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Text != "hi" || reply.N != 42 {
		t.Errorf("reply = %+v", reply)
	}
	// nil reply discards.
	if err := c.Call("echo", &echoArgs{Text: "x"}, nil); err != nil {
		t.Fatalf("Call with nil reply: %v", err)
	}
	// void handler.
	if err := c.Call("void", &echoArgs{}, nil); err != nil {
		t.Fatalf("void: %v", err)
	}
}

func TestCallErrors(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("fail", &echoArgs{}, nil); err == nil || err.Error() != "deliberate failure" {
		t.Errorf("fail call: %v", err)
	}
	if err := c.Call("nosuch", &echoArgs{}, nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply echoReply
			if err := c.Call("echo", &echoArgs{N: i}, &reply); err != nil {
				errs <- err
				return
			}
			if reply.N != i*2 {
				errs <- fmt.Errorf("reply %d for input %d", reply.N, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerPush(t *testing.T) {
	s := NewServer()
	s.Register("subscribe", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		go func() {
			for i := 0; i < 3; i++ {
				p.Push("tick", &echoReply{N: i})
			}
		}()
		return nil, nil
	})
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
	defer c.Close()
	got := make(chan int, 8)
	c.OnPush(func(method string, body Body) {
		if method != "tick" {
			t.Errorf("push method %s", method)
			return
		}
		var r echoReply
		if err := body.Decode(&r); err != nil {
			t.Error(err)
			return
		}
		got <- r.N
	})
	if err := c.Call("subscribe", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		select {
		case n := <-got:
			seen[n] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("push %d never arrived", i)
		}
	}
	if len(seen) != 3 {
		t.Errorf("pushes = %v", seen)
	}
}

func TestPeerMetaAndCloseCallback(t *testing.T) {
	s := NewServer()
	s.Register("login", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		var a echoArgs
		if err := DecodeBodyBytes(payload, &a); err != nil {
			return nil, err
		}
		p.SetMeta("user", a.Text)
		return nil, nil
	})
	s.Register("whoami", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		u, ok := p.Meta("user")
		if !ok {
			return nil, fmt.Errorf("not logged in")
		}
		return &echoReply{Text: u.(string)}, nil
	})
	var closedUser atomic.Value
	done := make(chan struct{})
	s.OnPeerClose(func(p *Peer) {
		if u, ok := p.Meta("user"); ok {
			closedUser.Store(u.(string))
		}
		close(done)
	})
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
	var r echoReply
	if err := c.Call("whoami", &echoArgs{}, &r); err == nil {
		t.Error("whoami before login succeeded")
	}
	if err := c.Call("login", &echoArgs{Text: "dr-adams"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("whoami", &echoArgs{}, &r); err != nil || r.Text != "dr-adams" {
		t.Errorf("whoami = %+v, %v", r, err)
	}
	c.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close callback never fired")
	}
	if closedUser.Load() != "dr-adams" {
		t.Errorf("closed user = %v", closedUser.Load())
	}
}

func TestCallAfterClose(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	time.Sleep(50 * time.Millisecond) // let the read loop observe the close
	if err := c.Call("echo", &echoArgs{}, nil); err == nil {
		t.Error("call on closed connection succeeded")
	}
}

func TestInProcessPipe(t *testing.T) {
	// ServeConn + NewClient work over net.Pipe — no TCP needed.
	s := NewServer()
	s.Register("echo", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		var a echoArgs
		if err := DecodeBodyBytes(payload, &a); err != nil {
			return nil, err
		}
		return &echoReply{Text: a.Text}, nil
	})
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	defer c.Close()
	var r echoReply
	if err := c.Call("echo", &echoArgs{Text: "pipe"}, &r); err != nil || r.Text != "pipe" {
		t.Fatalf("pipe call: %+v, %v", r, err)
	}
}

// TestMarshalUnmarshalErrors covers the codec failures a caller can
// provoke (args without a codec do not compile): a reply without one is
// refused before anything is sent, a handler result without one comes
// back as an error, and a payload that is not the body's encoding does
// not decode.
func TestMarshalUnmarshalErrors(t *testing.T) {
	s, addr := startServer(t)
	s.Register("nocodec", func(context.Context, *Peer, []byte) (any, error) {
		return struct{ X int }{1}, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var plain struct{ X int }
	if err := c.Call("echo", &echoArgs{}, &plain); err == nil {
		t.Error("reply without a BodyDecoder accepted")
	}
	if err := c.Call("nocodec", &echoArgs{}, nil); err == nil {
		t.Error("handler result without a BodyEncoder reached the client as success")
	}
	var x echoArgs
	if err := DecodeBodyBytes([]byte("junk"), &x); err == nil {
		t.Error("garbage decoded")
	}
	if err := DecodeBodyBytes(append(MarshalBody(&echoArgs{Text: "t"}), 0xFF), &x); err == nil {
		t.Error("trailing bytes accepted")
	}
}
