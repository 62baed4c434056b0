// Package wire is the remote-invocation layer of the system — the role
// Java RMI and JDBC play in the paper (§5.3): clients invoke interaction-
// server methods across the network, and the server pushes room events
// back over the same connection. There is one protocol: after a 5-byte
// version preamble, every message is a length-prefixed binary frame
// (codec2.go) carrying a kind, a correlation id, a trace id, a method
// code, a response's status and a payload encoded by the body's
// hand-written BodyEncoder/BodyDecoder codec — a failed response's
// payload is its error (route.go).
//
// A request reaches its registered Handler under one *Request, the
// request's context: it carries the frame's trace id, the request's
// obs.Trace and, once the interaction server's request step sets it,
// the deadline. What happens between the frame and the handler body
// (admission, deadline, accounting) is that request step. The context
// is cancelled when the peer's connection drops, so a dead client aborts
// its own in-flight work instead of leaving it running.
package wire

import "context"

// msgKind distinguishes envelope roles.
type msgKind uint8

const (
	kindRequest msgKind = iota
	kindResponse
	kindPush
)

// envelope is one message; its fields map onto the frame layout in
// codec2.go.
type envelope struct {
	Kind    msgKind
	ID      uint64 // request/response correlation
	Method  string
	Payload []byte // encoded body, already flat (received frames, PushRaw, CallRaw)
	Status  status // response only: ok, or the error Payload carries
	// Trace carries the request's trace id (requests only; minted by the
	// client, or at ingress when a foreign client sends none), so one id
	// follows the call from client log to server trace ring.
	Trace uint64

	// body is the segmented zero-copy form of an outgoing payload
	// (exclusive with Payload). Consumed — and returned to the pool — by
	// the frame writer.
	body *BodyEnc
	// frame is the pooled buffer a received response's payload aliases,
	// when its caller takes one (framepool.go); nil otherwise.
	frame *replyBuf
}

// Handler processes one request on the server. payload is the request
// body's binary encoding, valid until the handler returns (it lies in a
// pooled frame, as net/http's request body is the handler's only while
// it runs); a non-nil result must implement BodyEncoder and becomes the
// response payload. Most handlers are built with Typed, which owns the
// decode and pins both codecs at compile time.
type Handler func(ctx context.Context, p *Peer, payload []byte) (any, error)
