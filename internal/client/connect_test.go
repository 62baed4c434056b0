package client

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmconf/internal/cluster"
	"mmconf/internal/server"
	"mmconf/internal/wire"
)

// clientGoroutines lists the live goroutines, by id, that run a frame of
// this package.
func clientGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "mmconf/internal/client.") {
				out[strings.Fields(g)[1]] = g
				break
			}
		}
	}
	return out
}

// transport returns the connection c runs on now.
func transport(c *Client) *wire.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpc
}

// settleClosed closes c and fails the test if, one second on, the read
// loop of one of its transports still runs, or a goroutine that was not
// running before the client was built still runs client code. Only what
// the client started counts: other wire.Clients in the process, such as
// a cluster harness's node links, are not its.
func settleClosed(t *testing.T, before map[string]string, c *Client, transports ...*wire.Client) {
	t.Helper()
	c.Close()
	var left []string
	var reading int
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		left = left[:0]
		for id, g := range clientGoroutines() {
			if _, ok := before[id]; !ok {
				left = append(left, g)
			}
		}
		reading = 0
		for _, rpc := range transports {
			select {
			case <-rpc.Done():
			default:
				reading++
			}
		}
		if len(left) == 0 && reading == 0 || time.Now().After(deadline) {
			break
		}
	}
	if reading > 0 {
		t.Errorf("%d of the client's %d transports still read after Close", reading, len(transports))
	}
	for _, g := range left {
		t.Errorf("goroutine outlived Close:\n%s", g)
	}
}

// startCluster is a three-node harness that answers a join for a room
// another node owns with a redirect.
func startCluster(t *testing.T) *cluster.Harness {
	t.Helper()
	h, err := cluster.NewHarness(cluster.HarnessOptions{
		Dir: t.TempDir(), Seed: 7, Server: server.Options{SessionGrace: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestClosedClientLeavesNoGoroutine closes a client in each state its
// connection can be in and checks nothing of it keeps running.
func TestClosedClientLeavesNoGoroutine(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		srv, _, _ := testServer(t, "p1")
		before := clientGoroutines()
		c, err := NewOverDialer(func(context.Context) (net.Conn, error) {
			sc, cc := net.Pipe()
			go srv.ServeConn(sc)
			return cc, nil
		}, "alice", Options{Reconnect: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Join("r", "p1", 0); err != nil {
			t.Fatal(err)
		}
		settleClosed(t, before, c, transport(c))
	})

	t.Run("mid-outage", func(t *testing.T) {
		srv, _, _ := testServer(t, "p1")
		before := clientGoroutines()
		// The first dial reaches the server; every later one fails.
		var dials atomic.Int32
		conns := make(chan net.Conn, 1)
		c, err := NewOverDialer(func(context.Context) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return nil, errors.New("network down")
			}
			sc, cc := net.Pipe()
			go srv.ServeConn(sc)
			conns <- cc
			return cc, nil
		}, "alice", Options{Reconnect: true, MaxAttempts: -1, Backoff: Backoff{Base: 50 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: -1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Join("r", "p1", 0); err != nil {
			t.Fatal(err)
		}
		first := transport(c)
		(<-conns).Close()
		waitFor(t, func() bool { return c.ReconnectStats().Failures > 0 })
		settleClosed(t, before, c, first) // the redial loop sits in its backoff
	})

	t.Run("after-redirect", func(t *testing.T) {
		h := startCluster(t)
		before := clientGoroutines()
		c, err := NewOverResolver(h.ClientFaults.DialContext, []string{h.Nodes[0].Addr}, "alice", Options{Reconnect: true})
		if err != nil {
			t.Fatal(err)
		}
		first := transport(c)
		if _, _, err := c.Join(h.RoomOwnedBy(h.Nodes[1].ID, "ward"), "p1", 0); err != nil {
			t.Fatal(err)
		}
		if c.ReconnectStats().Redirects == 0 {
			t.Fatal("the join reached its room without a redirect")
		}
		settleClosed(t, before, c, first, transport(c))
	})
}

// TestFixedDialerSurfacesRedirect: a NewOverDialer client reaches one
// endpoint whatever address a redirect names, so a join for a room
// another node owns returns the redirect instead of moving the
// connection.
func TestFixedDialerSurfacesRedirect(t *testing.T) {
	h := startCluster(t)
	c, err := NewOverDialer(h.ClientFaults.Dialer(h.Nodes[0].Addr), "alice", Options{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roomName := h.RoomOwnedBy(h.Nodes[1].ID, "ward")
	_, _, err = c.Join(roomName, "p1", 0)
	var re *wire.RedirectError
	if !errors.As(err, &re) || re.Addr != h.Nodes[1].Addr {
		t.Fatalf("join for a room %s owns = %v, want a redirect to %s", h.Nodes[1].ID, err, h.Nodes[1].Addr)
	}
	if rs := c.ReconnectStats(); rs != (ReconnectStats{}) {
		t.Errorf("reconnect stats = %+v, want zero", rs)
	}
}
