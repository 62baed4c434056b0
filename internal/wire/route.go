package wire

import (
	"context"
	"errors"
	"strings"
)

// This file is the cluster-routing surface of the wire layer: the typed
// errors a routing tier answers with when a request belongs on another
// node (RedirectError) or cannot be served safely at all
// (UnavailableError), plus the raw relay primitives — RawResult and
// Client.CallRaw — a forwarding node uses to shuttle request and
// response payloads between connections byte-for-byte, without decoding
// them. Like OverloadError, the routing errors render a deterministic
// wire string that the client side parses back into the typed form, so
// redirect targets survive the round trip (and survive being relayed
// across an intermediate node, since relays carry error strings
// verbatim).

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

const (
	redirectPrefix = "wire: redirect to node "
	redirectSep    = " at "
)

// Error renders the deterministic wire form ParseRedirect inverts.
func (e *RedirectError) Error() string {
	return redirectPrefix + e.Node + redirectSep + e.Addr
}

// Is makes errors.Is(err, ErrRedirect) match.
func (e *RedirectError) Is(target error) bool { return target == ErrRedirect }

// ParseRedirect recovers a typed redirect from its string form — the
// shape a response error takes after crossing the wire (possibly twice,
// through a forwarding node) as a plain message.
func ParseRedirect(msg string) (*RedirectError, bool) {
	rest, ok := strings.CutPrefix(msg, redirectPrefix)
	if !ok {
		return nil, false
	}
	i := strings.LastIndex(rest, redirectSep)
	if i < 0 {
		return nil, false
	}
	node, addr := rest[:i], rest[i+len(redirectSep):]
	if node == "" || addr == "" {
		return nil, false
	}
	return &RedirectError{Node: node, Addr: addr}, true
}

// ErrUnavailable is the sentinel every routing-unavailable rejection
// matches (errors.Is): the node cannot serve or forward the request
// safely right now (it is partitioned away from the cluster majority,
// or mid-handoff). The caller should try another node.
var ErrUnavailable = errors.New("wire: cluster unavailable")

// UnavailableError reports a request refused by cluster routing. Unlike
// a redirect it names no better node — the client's resolver should
// rotate to its next endpoint and retry.
type UnavailableError struct {
	Node   string
	Reason string
}

const (
	unavailablePrefix = "wire: cluster unavailable at node "
	unavailableSep    = ": "
)

// Error renders the deterministic wire form ParseUnavailable inverts.
func (e *UnavailableError) Error() string {
	return unavailablePrefix + e.Node + unavailableSep + e.Reason
}

// Is makes errors.Is(err, ErrUnavailable) match.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// ParseUnavailable recovers a typed unavailable error from its string
// form.
func ParseUnavailable(msg string) (*UnavailableError, bool) {
	rest, ok := strings.CutPrefix(msg, unavailablePrefix)
	if !ok {
		return nil, false
	}
	i := strings.Index(rest, unavailableSep)
	if i < 0 {
		return nil, false
	}
	return &UnavailableError{Node: rest[:i], Reason: rest[i+len(unavailableSep):]}, true
}

// retypeError re-types the error strings callers dispatch on after they
// cross the wire as plain messages: overload (with its retry-after
// hint), redirect (with its target), and cluster-unavailable.
func retypeError(msg string) error {
	if oe, ok := ParseOverload(msg); ok {
		return oe
	}
	if re, ok := ParseRedirect(msg); ok {
		return re
	}
	if ue, ok := ParseUnavailable(msg); ok {
		return ue
	}
	return errors.New(msg)
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
// to a transport failure). Its message is the server's error string
// verbatim, which a relay returns unmodified so typed errors
// (redirect, overload) survive two hops.
type RemoteError struct{ Msg string }

// Error returns the far server's error string verbatim.
func (e *RemoteError) Error() string { return e.Msg }

// CallRaw invokes a server method with a pre-encoded payload and
// returns the raw response body — the relay path of a routing tier: no
// decode, no re-encode, the owner's bytes reach the origin client
// untouched. A non-nil error is either a *RemoteError (the far
// handler failed; relay its Msg verbatim) or a transport error
// (errors.Is ErrClosed / context errors — the relay link itself died).
func (c *Client) CallRaw(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.roundTrip(ctx, method, payload, nil)
}
