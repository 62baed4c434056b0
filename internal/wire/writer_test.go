package wire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestPushRawRoundTrip checks a pre-marshaled payload pushed with
// PushRaw arrives byte-identical to a regular Push of the same body.
func TestPushRawRoundTrip(t *testing.T) {
	payload := MarshalBody(&echoReply{Text: "shared", N: 7})
	s := NewServer()
	s.Register("kick", func(ctx context.Context, p *Peer, payload_ []byte) (any, error) {
		if err := p.PushRaw("raw", EncBinary, payload); err != nil {
			return nil, err
		}
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
	got := make(chan []byte, 1)
	c.OnPush(func(method string, body Body) {
		if method == "raw" {
			got <- body.Data
		}
	})
	if err := c.Call("kick", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Error("PushRaw payload bytes differ from the pre-marshaled input")
		}
		var r echoReply
		if err := DecodeBodyBytes(p, &r); err != nil || r.Text != "shared" || r.N != 7 {
			t.Errorf("decoded %+v, %v", r, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("raw push never arrived")
	}
}

// TestPushResponseFIFO checks the batched writer preserves per-peer
// order: a handler that pushes K messages before returning must have
// all K on the client before the response is delivered — the client's
// read loop dispatches pushes synchronously, so by the time Call
// returns every earlier push has been handled.
func TestPushResponseFIFO(t *testing.T) {
	const k = 32
	s := NewServer()
	s.Register("burst", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		for i := 0; i < k; i++ {
			if err := p.Push("seq", &echoReply{N: i}); err != nil {
				return nil, err
			}
		}
		return &echoReply{Text: "done"}, nil
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
	var seen atomic.Int64
	var outOfOrder atomic.Bool
	c.OnPush(func(method string, body Body) {
		var r echoReply
		if err := body.Decode(&r); err != nil {
			t.Error(err)
			return
		}
		if int64(r.N) != seen.Load() {
			outOfOrder.Store(true)
		}
		seen.Add(1)
	})
	for round := 0; round < 8; round++ {
		seen.Store(0)
		var r echoReply
		if err := c.Call("burst", &echoArgs{}, &r); err != nil {
			t.Fatal(err)
		}
		if got := seen.Load(); got != k {
			t.Fatalf("round %d: response arrived with %d/%d pushes delivered", round, got, k)
		}
		if outOfOrder.Load() {
			t.Fatal("pushes arrived out of order")
		}
	}
}

// TestFlushDrainsQueuedPushes checks the drain barrier: after a burst
// of pushes, Peer.Flush must not return before the queued envelopes
// have been handed to the socket, so a Shutdown immediately after the
// burst loses nothing.
func TestFlushDrainsQueuedPushes(t *testing.T) {
	const k = 50
	peerCh := make(chan *Peer, 1)
	s := NewServer()
	s.Register("hello", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		peerCh <- p
		return nil, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got atomic.Int64
	c.OnPush(func(method string, body Body) { got.Add(1) })
	if err := c.Call("hello", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	peer := <-peerCh
	for i := 0; i < k; i++ {
		if err := peer.Push("tick", &echoReply{N: i}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	// Shutdown flushes every peer before closing connections; all k
	// pushes must survive the immediate teardown.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < k && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != k {
		t.Errorf("received %d/%d pushes after drain", got.Load(), k)
	}
}

// TestWriterCounters checks the writer's observability: messages are
// counted per envelope, and a burst coalesces so flushes come out well
// under one per message.
func TestWriterCounters(t *testing.T) {
	const k = 64
	st := NewStats()
	s := NewServer()
	s.SetStats(st)
	s.Register("burst", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		for i := 0; i < k; i++ {
			if err := p.Push("seq", &echoReply{N: i}); err != nil {
				return nil, err
			}
		}
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
	var got atomic.Int64
	c.OnPush(func(method string, body Body) { got.Add(1) })
	if err := c.Call("burst", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	// The writer counts a flush after the socket write returns, so the
	// response can reach the client a moment before its flush is counted.
	waitFor(t, func() bool { return st.Counter(CounterWriterBytes) > 0 })
	// k pushes + 1 response.
	if msgs := st.Counter(CounterWriterMessages); msgs < k+1 {
		t.Errorf("writer messages = %d, want >= %d", msgs, k+1)
	}
	if st.Counter(CounterWriterFlushes) == 0 {
		t.Error("no writer flushes counted")
	}
	if st.Counter(CounterWriterWrites) == 0 {
		t.Error("no socket writes counted")
	}
	if st.Counter(CounterWriterBytes) == 0 {
		t.Error("no socket bytes counted")
	}
}

// TestWriterCoalescesBursts stalls the writer deterministically — a
// net.Pipe write blocks until the far end reads — so a burst enqueued
// while the writer is wedged must coalesce into a handful of flushes
// once the reader resumes, instead of one flush per message.
func TestWriterCoalescesBursts(t *testing.T) {
	const k = 48
	st := NewStats()
	s := NewServer()
	s.SetStats(st)
	peerCh := make(chan *Peer, 1)
	s.Register("hello", func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		peerCh <- p
		return nil, nil
	})
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	defer s.Close()
	defer cc.Close()

	// Drive the client end by hand so reads can be withheld.
	br := bufio.NewReader(cc)
	var rep [preambleLen]byte
	if _, err := cc.Write(appendPreamble(nil, ProtoV2)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(br, rep[:]); err != nil {
		t.Fatal(err)
	}
	fw := newVecWriter(cc, nil)
	fw.encodeFrame(&envelope{Kind: kindRequest, ID: 1, Method: "hello"})
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	if resp, err := readFrame(br); err != nil || resp.Err != "" {
		t.Fatalf("hello response: %+v, %v", resp, err)
	}
	peer := <-peerCh

	// With no reader, the writer's first flush wedges on the pipe while
	// every subsequent push queues behind it (queue cap 256 > k).
	payload := MarshalBody(&echoReply{Text: "burst"})
	base := st.Counter(CounterWriterFlushes)
	for i := 0; i < k; i++ {
		if err := peer.PushRaw("tick", EncBinary, payload); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	// Resume reading: the queued burst must drain in few flushes.
	for got := 0; got < k; {
		env, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d pushes: %v", got, err)
		}
		if env.Kind == kindPush {
			got++
		}
	}
	if flushes := st.Counter(CounterWriterFlushes) - base; flushes > k/4 {
		t.Errorf("burst of %d messages took %d flushes, want coalescing", k, flushes)
	}
}
