package wire

import (
	"context"

	"mmconf/internal/obs"
)

// None is the body of methods that carry nothing in one direction: its
// codec is empty. A typed handler with Resp = None returns nil and the
// client sees an empty payload.
type None struct{}

// AppendBody implements BodyEncoder.
func (*None) AppendBody(*BodyEnc) {}

// DecodeBody implements BodyDecoder.
func (*None) DecodeBody(d *Dec) error { return d.Err() }

// Typed adapts a strongly-typed handler to the wire Handler shape,
// owning the decode of the request. The constraints make "this body has
// no codec" a compile error: *Req must decode and *Resp must encode. A
// nil *Resp (the only option when Resp is None) produces an empty
// response payload. When the request carries a live trace (every
// Request does), the adapter times the decode and the handler body as
// "decode" and "handle" spans.
//
// This is the seam every interaction-server method registers through:
//
//	s.Register(proto.MChat, wire.Typed(func(ctx context.Context, p *wire.Peer, req *proto.ChatReq) (*wire.None, error) {
//		...
//	}))
func Typed[Req, Resp any, PReq interface {
	*Req
	BodyDecoder
}, PResp interface {
	*Resp
	BodyEncoder
}](h func(ctx context.Context, p *Peer, req *Req) (*Resp, error)) Handler {
	return func(ctx context.Context, p *Peer, payload []byte) (any, error) {
		req := new(Req)
		decode := obs.StartSpan(ctx, "decode")
		err := DecodeBodyBytes(payload, PReq(req))
		decode.End()
		if err != nil {
			return nil, err
		}
		handle := obs.StartSpan(ctx, "handle")
		resp, err := h(ctx, p, req)
		handle.End()
		if err != nil || resp == nil {
			return nil, err
		}
		return PResp(resp), nil
	}
}
