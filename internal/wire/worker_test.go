package wire

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 42 [running]:").
func goroutineID() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.Atoi(string(f[1]))
	return id
}

// workers counts the request workers of every wire.Server in the
// process off the stack dump: how many are alive, and how many of those
// are parked — waiting for a request, not running one.
func workers() (alive, parked int) {
	buf := make([]byte, 1<<20)
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if !bytes.Contains(g, []byte("wire.(*Server).worker(")) {
			continue
		}
		alive++
		if !bytes.Contains(g, []byte("wire.(*Server).run(")) {
			parked++
		}
	}
	return alive, parked
}

// settle waits for the request workers to be gone and the goroutine
// count to be down to want; neither is there the instant a worker or a
// connection's loops were told to go.
func settle(t *testing.T, want int, within time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		alive, _ := workers()
		if alive == 0 && runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines (%d workers), want %d (none)\n%s",
				what, runtime.NumGoroutine(), alive, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitParked waits until the process has exactly alive workers, parked
// of them parked. A worker queues its response before it parks, so a
// client can be back with the next request first — and is given a new
// worker, which is the design, not what this test is about.
func awaitParked(t *testing.T, alive, parked int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		a, p := workers()
		if a == alive && p == parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers, %d parked; want %d, %d parked", a, p, alive, parked)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestWorkersAreResident pins who runs a request and for how long
// that goroutine lives: sequential requests on a connection run on one
// worker (so the stack the first grew is there for the rest); a request
// that arrives while that worker is blocked does not wait for it; parked
// workers leave after workerIdle; and Server.Close takes parked workers
// with it. Counts goroutines, so it runs alone, not under t.Parallel.
func TestRequestWorkersAreResident(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan int, 1)
	s := NewServer()
	s.Register("gid", func(context.Context, *Peer, []byte) (any, error) {
		return &echoReply{N: goroutineID()}, nil
	})
	s.Register("block", func(context.Context, *Peer, []byte) (any, error) {
		entered <- goroutineID()
		<-release
		return nil, nil
	})
	gid := func(c *Client) int {
		t.Helper()
		var r echoReply
		if err := c.Call("gid", &echoArgs{}, &r); err != nil {
			t.Fatal(err)
		}
		return r.N
	}
	// Servers of earlier tests that were never closed still have workers
	// idling out; start counting once they are gone.
	settle(t, runtime.NumGoroutine(), workerIdle+2*time.Second, "before the first request")
	before := runtime.NumGoroutine()
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	defer c.Close()
	<-c.ready // the handshake is over: the server is about to register the peer
	waitFor(t, func() bool { peers, _ := s.WriteBacklog(); return peers == 1 })
	// The connection's own: the server's reader and writer, the client's
	// reader. Everything above this is a request worker.
	conn := runtime.NumGoroutine()

	first := gid(c)
	for i := 0; i < 20; i++ {
		awaitParked(t, 1, 1)
		if got := gid(c); got != first {
			t.Fatalf("request %d ran on goroutine %d, the first on %d", i+2, got, first)
		}
	}
	awaitParked(t, 1, 1)

	// Block that worker: the next request must run at once, elsewhere.
	blocked := make(chan error, 1)
	go func() { blocked <- c.Call("block", &echoArgs{}, nil) }()
	if held := <-entered; held != first {
		t.Errorf("the blocking request ran on goroutine %d, not on the parked worker %d", held, first)
	}
	awaitParked(t, 1, 0)
	second := gid(c)
	if second == first {
		t.Fatal("a request ran on a worker that is still blocked in another")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// Both park and both are reused; which takes the next request is the
	// channel's choice.
	awaitParked(t, 2, 2)
	if got := gid(c); got != first && got != second {
		t.Errorf("with two workers parked a request ran on a third goroutine, %d", got)
	}
	awaitParked(t, 2, 2)

	settle(t, conn, workerIdle+2*time.Second, "after the idle period")

	// Close with a worker parked: it and the connection's three all go.
	gid(c)
	awaitParked(t, 1, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, before, time.Second, "after Close")
}
