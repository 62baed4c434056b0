package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"mmconf/internal/obs"
)

// TestRequestFromManyGoroutines: a request's context is read from
// several goroutines while its deadline is set and its Done child made;
// every reader agrees with the others, and the deadline ends Done with
// DeadlineExceeded.
func TestRequestFromManyGoroutines(t *testing.T) {
	conn, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := &Request{conn: conn, trace: obs.Trace{ID: 9}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sp := obs.StartSpan(req, "read")
				_, _ = req.Deadline()
				err := req.Err()
				if id := ContextTraceID(req); id != 9 {
					t.Errorf("trace id %d, want 9", id)
				}
				sp.End()
				if err != nil {
					select {
					case <-req.Done():
					default:
						t.Error("Err reported the end before Done closed")
					}
					return
				}
			}
		}()
	}
	req.SetDeadline(time.Now().Add(20 * time.Millisecond))
	select {
	case <-req.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the deadline did not close Done")
	}
	if err := req.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline: %v", err)
	}
	wg.Wait()
	req.end()
	if err := req.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the handler returned: %v", err)
	}
}

// probe is what a handler saw of its context on entry.
type probe struct {
	gid     int
	req     *Request
	id      uint64
	method  string
	spans   int
	bounded bool
	err     error
	done    <-chan struct{} // set when the handler asked for Done
}

// probeServer serves one net.Pipe connection with handlers "a" and "b",
// which report what they saw on entry and then leave marks the next
// request must not see: a span and a passed deadline. "waits" does the
// same after asking for Done.
func probeServer(t *testing.T) (*Client, <-chan probe) {
	t.Helper()
	seen := make(chan probe, 1)
	look := func(ctx context.Context, waits bool) {
		req := ctx.(*Request)
		tr := req.Trace()
		_, bounded := req.Deadline()
		p := probe{gid: goroutineID(), req: req, id: tr.ID, method: tr.Method,
			spans: len(tr.Spans()), bounded: bounded, err: req.Err()}
		if waits {
			p.done = req.Done()
		}
		tr.AddSpan("mark", time.Now(), time.Microsecond)
		req.SetDeadline(time.Now().Add(-time.Second))
		seen <- p
	}
	s := NewServer()
	for _, m := range []string{"a", "b"} {
		s.Register(m, func(ctx context.Context, _ *Peer, _ []byte) (any, error) {
			look(ctx, false)
			return nil, nil
		})
	}
	s.Register("waits", func(ctx context.Context, _ *Peer, _ []byte) (any, error) {
		look(ctx, true)
		return nil, nil
	})
	sc, cc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c, seen
}

// probeCall makes one request under trace id tid and returns what its
// handler saw. The pause first lets the previous request's worker park,
// so that one worker usually runs the next request too.
func probeCall(t *testing.T, c *Client, seen <-chan probe, method string, tid uint64) probe {
	t.Helper()
	time.Sleep(2 * time.Millisecond)
	if err := c.CallCtx(obs.ContextWithID(context.Background(), tid), method, &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	return <-seen
}

// TestWorkerReusesItsRequest: sequential requests that one resident
// worker runs share one *Request, and each of them finds it reset — its
// own trace id and method, none of the previous request's spans, no
// deadline and a nil Err, although the previous handler left a span and
// a passed deadline on it.
func TestWorkerReusesItsRequest(t *testing.T) {
	c, seen := probeServer(t)
	prev := probeCall(t, c, seen, "a", 100)
	reused := 0
	for i := 1; i <= 40; i++ {
		method := []string{"a", "b"}[i%2]
		p := probeCall(t, c, seen, method, uint64(100+i))
		if p.id != uint64(100+i) || p.method != method || p.spans != 0 || p.bounded || p.err != nil {
			t.Fatalf("request %d saw trace %d, method %q, %d spans, deadline set %v, Err %v; want trace %d, %q and a clean context",
				i, p.id, p.method, p.spans, p.bounded, p.err, 100+i, method)
		}
		if p.gid == prev.gid {
			if p.req != prev.req {
				t.Fatalf("request %d ran on the worker of request %d under a new Request", i, i-1)
			}
			reused++
		}
		prev = p
	}
	if reused == 0 {
		t.Fatal("no two sequential requests ran on one worker")
	}
}

// TestRequestThatMadeDoneIsNotReused: a handler that asked for Done
// leaves its Request to whoever holds the channel. The next request on
// the same worker runs under a different Request, and the first one's
// Done stays closed.
func TestRequestThatMadeDoneIsNotReused(t *testing.T) {
	c, seen := probeServer(t)
	for i := 0; i < 40; i++ {
		first := probeCall(t, c, seen, "waits", uint64(200+2*i))
		next := probeCall(t, c, seen, "a", uint64(201+2*i))
		if next.gid != first.gid {
			continue // another worker ran it: try again
		}
		if next.req == first.req {
			t.Fatal("a Request whose Done was asked for ran the worker's next request")
		}
		select {
		case <-first.done:
		default:
			t.Fatal("the first request's Done is open again after the next request began")
		}
		if first.req.Err() == nil {
			t.Fatal("the first request's Err is nil after its handler returned")
		}
		return
	}
	t.Fatal("no request ran on the worker of the request before it")
}

// relayOutcome is how a relayed call ended: its error, and whether the
// handler's Request still had no child when the call returned.
type relayOutcome struct {
	err       error
	childless bool
}

// relayed starts an owner server whose "block" handler waits until its
// connection drops, and an ingress server whose "relay" handler calls
// it through one link under the handler's own Request — after arm, if
// arm is set, has had the Request. It returns the origin client's
// connection to the ingress server, a channel that fires when the owner
// is blocked, and the relay handler's outcome.
func relayed(t *testing.T, arm func(*Request)) (origin *Client, blocked <-chan struct{}, out <-chan relayOutcome) {
	t.Helper()
	entered := make(chan struct{}, 1)
	owner := NewServer()
	owner.Register("block", func(ctx context.Context, _ *Peer, _ []byte) (any, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	osc, occ := net.Pipe()
	go owner.ServeConn(osc)
	link := NewClient(occ)
	result := make(chan relayOutcome, 1)
	ingress := NewServer()
	ingress.Register("relay", func(ctx context.Context, _ *Peer, _ []byte) (any, error) {
		req := ctx.(*Request)
		if arm != nil {
			arm(req)
		}
		_, err := link.CallRaw(ctx, "block", nil)
		req.mu.Lock()
		childless := req.child == nil
		req.mu.Unlock()
		result <- relayOutcome{err: err, childless: childless}
		return nil, err
	})
	isc, icc := net.Pipe()
	go ingress.ServeConn(isc)
	origin = NewClient(icc)
	t.Cleanup(func() {
		origin.Close()
		link.Close()
		ingress.Close()
		owner.Close()
	})
	return origin, entered, result
}

// TestRelayedCallEndsWithTheOrigin: a call made under a handler's
// Request waits on the Request's connection without making it a child,
// and still ends when the origin client's connection drops.
func TestRelayedCallEndsWithTheOrigin(t *testing.T) {
	origin, blocked, out := relayed(t, nil)
	go func() { _ = origin.CallCtx(context.Background(), "relay", &echoArgs{}, nil) }()
	<-blocked
	origin.Close()
	select {
	case p := <-out:
		if !errors.Is(p.err, context.Canceled) {
			t.Fatalf("the relayed call returned %v, want context.Canceled", p.err)
		}
		if !p.childless {
			t.Error("the relayed call made its Request a Done child")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the relayed call was still waiting 5s after the origin's connection dropped")
	}
}

// TestRelayedCallEndsAtTheDeadline: a call under a Request with a
// deadline ends at that deadline, on the call's own timer, without
// making the Request a child.
func TestRelayedCallEndsAtTheDeadline(t *testing.T) {
	origin, _, out := relayed(t, func(r *Request) { r.SetDeadline(time.Now().Add(50 * time.Millisecond)) })
	go func() { _ = origin.CallCtx(context.Background(), "relay", &echoArgs{}, nil) }()
	select {
	case p := <-out:
		if !errors.Is(p.err, context.DeadlineExceeded) {
			t.Fatalf("the relayed call returned %v, want context.DeadlineExceeded", p.err)
		}
		if !p.childless {
			t.Error("the relayed call made its Request a Done child")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the relayed call was still waiting 5s after a 50ms deadline")
	}
}
