package wire

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the failure surface of a response: the status byte a
// response frame carries after its method, the typed errors the
// statuses name — OverloadError (admission.go), RedirectError when a
// request belongs on another node, UnavailableError when it cannot be
// served safely at all — and the raw relay primitives a forwarding node
// uses to shuttle request and response payloads between connections
// without decoding them (RawResult, Client.CallRaw). A failed response's
// payload is its error's fields, so a typed error reaches the caller
// typed, and a relay that returns the *RemoteError it got answers with
// the same status and fields.

// status is the outcome a response frame names: ok (the payload is the
// result) or the kind of error its payload encodes.
type status uint8

const (
	statusOK          status = iota
	statusError              // a plain error: its text
	statusOverloaded         // an OverloadError: Reason, RetryAfter
	statusRedirect           // a RedirectError: Node, Addr
	statusUnavailable        // an UnavailableError: Node, Reason
)

// ErrRedirect is the sentinel every routing redirect matches
// (errors.Is). The concrete error is *RedirectError, which carries the
// target node.
var ErrRedirect = errors.New("wire: redirected")

// RedirectError tells the caller its request is owned by another node:
// redial Addr and retry there. The reconnect supervisor follows it.
type RedirectError struct {
	Node string // owning node id
	Addr string // owning node's client address
}

// Error names the owning node.
func (e *RedirectError) Error() string {
	return "wire: redirect to node " + e.Node + " at " + e.Addr
}

// Is makes errors.Is(err, ErrRedirect) match.
func (e *RedirectError) Is(target error) bool { return target == ErrRedirect }

// ErrUnavailable is the sentinel every unavailable rejection matches
// (errors.Is): the node cannot serve or forward the request safely right
// now (it is draining, partitioned away from the cluster majority, or
// mid-handoff). The caller should try another node.
var ErrUnavailable = errors.New("wire: cluster unavailable")

// UnavailableError reports a request refused because the node cannot
// serve it safely. Unlike a redirect it names no better node — the
// client's resolver should rotate to its next endpoint and retry. A
// draining wire.Server answers with one that names no node.
type UnavailableError struct {
	Node   string
	Reason string
}

// Error names the node, when there is one, and the reason.
func (e *UnavailableError) Error() string {
	if e.Node == "" {
		return "wire: unavailable: " + e.Reason
	}
	return "wire: cluster unavailable at node " + e.Node + ": " + e.Reason
}

// Is makes errors.Is(err, ErrUnavailable) match.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// fail makes resp a failed response: the status errors.As finds for
// err, and that error's fields as the payload.
func (resp *envelope) fail(err error) {
	var (
		oe *OverloadError
		re *RedirectError
		ue *UnavailableError
	)
	e := getBodyEnc()
	switch {
	case errors.As(err, &oe):
		resp.Status = statusOverloaded
		e.String(oe.Reason)
		e.Varint(int64(oe.RetryAfter))
	case errors.As(err, &re):
		resp.Status = statusRedirect
		e.String(re.Node)
		e.String(re.Addr)
	case errors.As(err, &ue):
		resp.Status = statusUnavailable
		e.String(ue.Node)
		e.String(ue.Reason)
	default:
		resp.Status = statusError
		e.String(err.Error())
	}
	resp.body = e
}

// failure decodes a failed response's payload into the error its status
// names.
func failure(s status, payload []byte) error {
	d := NewDec(payload)
	var err error
	switch s {
	case statusOverloaded:
		err = &OverloadError{Reason: d.String(), RetryAfter: time.Duration(d.Varint())}
	case statusRedirect:
		err = &RedirectError{Node: d.String(), Addr: d.String()}
	case statusUnavailable:
		err = &UnavailableError{Node: d.String(), Reason: d.String()}
	default:
		err = errors.New(d.String())
	}
	if d.Err() != nil {
		return fmt.Errorf("wire: response status %d: %w", s, d.Err())
	}
	return err
}

// RawResult is a handler result that is already encoded: its bytes
// become the response payload as they are. It is how a forwarding node
// relays an owner node's response to the origin client byte-for-byte —
// the bytes were encoded once, on the owner.
type RawResult []byte

// AppendBody implements BodyEncoder by passing the bytes through (by
// reference when large, like any other payload).
func (r RawResult) AppendBody(e *BodyEnc) { e.raw(r) }

// RemoteError is a call failure reported by the far server (as opposed
// to a transport failure). It wraps the error the response decoded to,
// so errors.As finds a typed one, and a handler that returns it answers
// its own caller with the same status and fields.
type RemoteError struct{ Err error }

// Error returns the far server's error text.
func (e *RemoteError) Error() string { return e.Err.Error() }

// Unwrap returns the decoded error.
func (e *RemoteError) Unwrap() error { return e.Err }

// CallRaw invokes a server method with a pre-encoded payload and
// returns the raw response body — the relay path of a routing tier: no
// decode, no re-encode, the owner's bytes reach the origin client
// untouched. A non-nil error is either a *RemoteError (the far
// handler failed; return it to relay its status) or a transport error
// (errors.Is ErrClosed / context errors — the relay link itself died).
func (c *Client) CallRaw(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.roundTrip(ctx, method, payload, nil, nil)
}
