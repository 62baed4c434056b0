package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestStatusRoundTrip: a handler's error reaches the caller as the
// response's status names it — a typed error with every field, also
// when wrapped or inside the *RemoteError a relay returns, and anything
// else as its text alone, even text that reads like a typed error.
func TestStatusRoundTrip(t *testing.T) {
	for _, want := range []error{
		&OverloadError{Reason: ShedReasonQueueFull, RetryAfter: 1250*time.Millisecond + 3*time.Microsecond},
		&OverloadError{Reason: ShedReasonRate, RetryAfter: 7},
		&RedirectError{Node: "n2", Addr: "10.0.0.2:7000"},
		&UnavailableError{Node: "n1", Reason: "no cluster majority"},
		&UnavailableError{Reason: "draining"},
	} {
		for _, err := range []error{want, fmt.Errorf("relay: %w", want), &RemoteError{Err: want}} {
			if got := statusRoundTrip(t, err); !reflect.DeepEqual(got, want) {
				t.Errorf("%#v crossed as %#v", err, got)
			}
		}
	}
	for _, text := range []string{
		"", "deliberate failure",
		"wire: redirect to node x at y",
		"wire: overloaded: queue full; retry after 5ms",
		"wire: cluster unavailable at node n1: draining",
	} {
		if got := statusRoundTrip(t, errors.New(text)); !reflect.DeepEqual(got, errors.New(text)) {
			t.Errorf("plain %q crossed as %#v", text, got)
		}
	}
}

// statusRoundTrip sends err through a response frame and decodes the
// error the frame's status and payload name.
func statusRoundTrip(t *testing.T, err error) error {
	t.Helper()
	resp := envelope{Kind: kindResponse, ID: 1, Method: "codec2test.status"}
	resp.fail(err)
	got := roundTripFrame(t, resp)
	return failure(got.Status, got.Payload)
}

// TestTypedErrorsCrossARelay: an error a far handler returns reaches
// the origin as it left, called directly and through a relay handler
// that returns CallRaw's *RemoteError as it is — a typed error typed,
// with every field, and a plain one plain, even when its text reads
// like a redirect.
func TestTypedErrorsCrossARelay(t *testing.T) {
	refusals := []error{
		&OverloadError{Reason: ShedReasonQueueFull, RetryAfter: 1234567 * time.Nanosecond},
		&RedirectError{Node: "n2", Addr: "127.0.0.1:7002"},
		&UnavailableError{Node: "n3", Reason: "no cluster majority"},
		errors.New("wire: redirect to node x at y"),
	}
	pipe := func(s *Server) *Client {
		sc, cc := net.Pipe()
		go s.ServeConn(sc)
		c := NewClient(cc)
		t.Cleanup(func() { c.Close() })
		return c
	}
	owner := NewServer()
	t.Cleanup(func() { owner.Close() })
	owner.Register("refuse", func(_ context.Context, _ *Peer, payload []byte) (any, error) {
		return nil, refusals[payload[0]]
	})
	link := pipe(owner)
	ingress := NewServer()
	t.Cleanup(func() { ingress.Close() })
	ingress.Register("relay", func(ctx context.Context, _ *Peer, payload []byte) (any, error) {
		body, err := link.CallRaw(ctx, "refuse", payload)
		if err != nil {
			return nil, err
		}
		return RawResult(body), nil
	})
	for _, path := range []struct {
		name   string
		c      *Client
		method string
	}{{"direct", pipe(owner), "refuse"}, {"relayed", pipe(ingress), "relay"}} {
		for i, want := range refusals {
			_, err := path.c.CallRaw(context.Background(), path.method, []byte{byte(i)})
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("%s: %v: not a *RemoteError: %#v", path.name, want, err)
			}
			if !reflect.DeepEqual(re.Err, want) || errors.Is(err, ErrRedirect) != errors.Is(want, ErrRedirect) {
				t.Errorf("%s: %#v arrived as %#v", path.name, want, re.Err)
			}
		}
	}
}
