package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/obs"
)

// PushHandler receives server pushes on the client; Body.Decode
// unmarshals the payload.
type PushHandler func(method string, body Body)

// ErrClosed reports an operation on a client whose connection has ended.
// Callers needing to distinguish a dead connection (redialable) from an
// application error test with errors.Is.
var ErrClosed = errors.New("wire: connection closed")

// DefaultDialTimeout bounds Dial's TCP connect so a black-holed address
// fails instead of hanging indefinitely.
const DefaultDialTimeout = 10 * time.Second

// Client is the caller side of the protocol.
type Client struct {
	conn   net.Conn
	wmu    sync.Mutex // guards fw
	fw     *vecWriter
	nextID uint64

	ready chan struct{} // closed when the handshake settles
	done  chan struct{} // closed when the read loop exits

	callTimeout atomic.Int64 // default per-call deadline in ns (0 = none)

	mu      sync.Mutex
	pending map[uint64]chan envelope
	onPush  PushHandler
	closed  bool
	readErr error
}

// Dial connects to a server address over TCP, bounded by
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a server address over TCP; the connect attempt
// is abandoned when ctx ends (the redial path's building block — a
// reconnecting client bounds each attempt instead of hanging on a
// partitioned network).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. a net.Pipe end or a
// netsim.ThrottledConn). The version handshake runs asynchronously in
// the read loop so wrapping a synchronous transport like net.Pipe cannot
// deadlock; calls block until it settles.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		fw:      newVecWriter(conn, nil),
		pending: make(map[uint64]chan envelope),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Done returns a channel closed when the connection ends (EOF, reset, or
// Close). A reconnecting wrapper watches it to trigger redial.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection ended (nil for a clean EOF or before it
// ended). Valid once Done is closed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// SetCallTimeout installs a default per-call deadline applied to every
// Call/CallCtx whose context carries no deadline of its own — so a hung
// server or a silent partition fails the call instead of wedging the
// caller forever. Zero disables the default.
func (c *Client) SetCallTimeout(d time.Duration) { c.callTimeout.Store(int64(d)) }

// OnPush installs the push handler. Install it before triggering any
// server activity that may push.
func (c *Client) OnPush(h PushHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPush = h
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, readBufferSize)
	fail := func(err error) {
		c.mu.Lock()
		c.closed = true
		if err != nil && err != io.EOF {
			c.readErr = err
		}
		for id, ch := range c.pending {
			close(ch)
			delete(c.pending, id)
		}
		c.mu.Unlock()
	}
	// The handshake runs here, not in NewClient, so wrapping a synchronous
	// transport (net.Pipe) cannot deadlock the constructor; calls block on
	// c.ready until it settles. No other goroutine writes before ready
	// closes, so the preamble write needs no lock.
	if _, err := c.conn.Write(appendPreamble(nil, ProtoV2)); err != nil {
		fail(err)
		return
	}
	var rep [preambleLen]byte
	if _, err := io.ReadFull(br, rep[:]); err != nil {
		fail(err)
		return
	}
	chosen, ok := parsePreamble(rep[:])
	if !ok {
		fail(errors.New("wire: bad negotiation reply"))
		return
	}
	if _, ok = negotiate(chosen); !ok {
		fail(fmt.Errorf("%w: server chose version %d", ErrProtoVersion, chosen))
		return
	}
	close(c.ready)
	for {
		env, err := readFrame(br)
		if err != nil {
			fail(err)
			return
		}
		switch env.Kind {
		case kindResponse:
			c.mu.Lock()
			ch := c.pending[env.ID]
			delete(c.pending, env.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- env
			}
		case kindPush:
			c.mu.Lock()
			h := c.onPush
			c.mu.Unlock()
			if h != nil {
				h(env.Method, Body{Data: env.Payload})
			}
		}
	}
}

// closedErr is what a call on a dead connection reports: ErrClosed,
// joined with the reason the read loop recorded — so a refused
// handshake also matches ErrProtoVersion.
func (c *Client) closedErr() error {
	if err := c.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return ErrClosed
}

// roundTrip sends one request — payload if already encoded, args
// otherwise — and waits for the reply payload. A non-nil error is either
// a *RemoteError (the far handler failed) or a transport error
// (errors.Is ErrClosed / context errors). The results are exactly
// CallRaw's so that it inlines: a forwarding node runs this frame at the
// bottom of its interceptor chain, and one more frame there cost the
// forwarded choice 5% in goroutine stack growth.
func (c *Client) roundTrip(ctx context.Context, method string, payload []byte, args BodyEncoder) (reply []byte, err error) {
	// The default deadline covers the handshake wait too: a peer that
	// accepts the connection but never answers the preamble must fail the
	// call, not wedge it.
	if timeout := time.Duration(c.callTimeout.Load()); timeout > 0 {
		if _, bounded := ctx.Deadline(); !bounded {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
	}
	// The handshake settles before the first byte of any call goes out.
	select {
	case <-c.ready:
	case <-c.done:
		return nil, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
	case <-ctx.Done():
		return nil, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	}
	id := atomic.AddUint64(&c.nextID, 1)
	ch := make(chan envelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// Every call carries a trace id: the caller's (WithTraceID) when it
	// wants to correlate, a fresh mint otherwise.
	tid, hasTID := obs.IDFrom(ctx)
	if !hasTID {
		tid = obs.MintID()
	}
	env := envelope{Kind: kindRequest, ID: id, Method: method, Payload: payload, Trace: tid}
	if args != nil {
		env.body = getBodyEnc() // the frame writer returns it to the pool
		args.AppendBody(env.body)
	}
	c.wmu.Lock()
	c.fw.encodeFrame(&env)
	err = c.fw.flush()
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		closed := c.closed
		delete(c.pending, id)
		c.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("wire: call %s: %w: %v", method, ErrClosed, err)
		}
		return nil, fmt.Errorf("wire: call %s: %w", method, err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("wire: %w during %s", c.closedErr(), method)
		}
		if resp.Err != "" {
			return nil, &RemoteError{Msg: resp.Err}
		}
		return resp.Payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	}
}

// Call invokes a server method, decoding the response into reply (pass
// nil to discard the result).
func (c *Client) Call(method string, args BodyEncoder, reply any) error {
	return c.CallCtx(context.Background(), method, args, reply)
}

// CallCtx invokes a server method, abandoning the wait when ctx ends. A
// non-nil reply must implement BodyDecoder (it is typed any only because
// benchmark/ hands one through an any). An abandoned call's response is
// discarded if it arrives later; the server side may still run to
// completion unless its own timeout or the connection's death cancels it.
func (c *Client) CallCtx(ctx context.Context, method string, args BodyEncoder, reply any) error {
	bd, ok := reply.(BodyDecoder)
	if reply != nil && !ok {
		return fmt.Errorf("wire: call %s: reply %T implements no BodyDecoder", method, reply)
	}
	payload, err := c.roundTrip(ctx, method, nil, args)
	if re, remote := err.(*RemoteError); remote {
		// Errors cross the wire as strings; re-type the ones callers
		// dispatch on: overload rejections come back as *OverloadError
		// (retry-after hint intact), routing redirects as *RedirectError
		// (target node intact), quorum refusals as *UnavailableError.
		return retypeError(re.Msg)
	}
	if err != nil {
		return err
	}
	if bd != nil {
		return DecodeBodyBytes(payload, bd)
	}
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// CallTimeout is a convenience CallCtx with a fresh deadline.
func (c *Client) CallTimeout(d time.Duration, method string, args BodyEncoder, reply any) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.CallCtx(ctx, method, args, reply)
}
