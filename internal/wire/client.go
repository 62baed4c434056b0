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

// PushHandler receives server pushes on the client, one at a time on
// the connection's read goroutine; Body.Decode unmarshals the payload.
// The body's Data is valid only during the call: a handler that keeps
// the bytes, or a decoded field aliasing them, copies them.
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
// Call/CallCtx/CallRaw whose context carries no deadline of its own — so
// a hung server or a silent partition fails the call instead of wedging
// the caller forever. Zero disables the default. The call makes no
// context for it: it waits on a pooled timer beside the reply, so a
// bounded call allocates what an unbounded one does.
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
	if _, err := c.conn.Write(appendPreamble(nil, ProtoV3)); err != nil {
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
		// A frame that fits the reader's buffer is read where it lies
		// (inPlace > 0): a push body is handed to the handler from there
		// and dropped after it returns; a response payload, which leaves
		// this goroutine, is copied out first.
		env, inPlace, err := peekFrame(br)
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
				if inPlace > 0 && len(env.Payload) > 0 {
					env.Payload = append(make([]byte, 0, len(env.Payload)), env.Payload...)
				}
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
		_, _ = br.Discard(inPlace) // cannot fail: Peek has buffered the frame
	}
}

// replyChans recycles the channels calls wait for their response on. A
// channel goes back only after its response was received: an abandoned
// call's channel may still be sent to, and a closed one (the connection
// failed) can never be reused.
var replyChans = sync.Pool{New: func() any { return make(chan envelope, 1) }}

// callTimers recycles the timers that bound calls under SetCallTimeout.
// A timer goes back only when its channel is known empty and stays so:
// stopped before it fired, or fired and received from. One that fired
// while the call ended otherwise is dropped — under the asynchronous
// timer channels of a go 1.22 module, Stop may report the fire before
// its value reaches the channel, and a late value left in a pooled
// timer would fail some later call with a deadline it never reached.
var callTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// callTimer is one call's default deadline; the zero value is none.
type callTimer struct {
	t     *time.Timer
	fired bool // its value was received: the channel is empty
}

// start arms the timer for deadline when it is set: the deadline of a
// Request the call waits on without its Done (wait). Otherwise it arms
// the default timeout when ctx has no deadline of its own.
func (ct *callTimer) start(ctx context.Context, deadline time.Time, timeout time.Duration) {
	if !deadline.IsZero() {
		timeout = time.Until(deadline)
	} else if _, bounded := ctx.Deadline(); bounded || timeout <= 0 {
		return
	}
	ct.t = callTimers.Get().(*time.Timer)
	ct.t.Reset(timeout)
}

// C is the channel the call waits on beside its reply: nil (never
// ready) without a timer.
func (ct *callTimer) C() <-chan time.Time {
	if ct.t == nil {
		return nil
	}
	return ct.t.C
}

// expired records that the call received the timer's fire and returns
// the call's error.
func (ct *callTimer) expired(method string) error {
	ct.fired = true
	return fmt.Errorf("wire: call %s: %w", method, context.DeadlineExceeded)
}

// release stops the timer and pools it if its channel is empty.
func (ct *callTimer) release() {
	if ct.t == nil {
		return
	}
	if ct.t.Stop() || ct.fired {
		callTimers.Put(ct.t)
	}
	ct.t = nil
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
// bottom of its request step's routing, and one more frame there cost
// the forwarded choice 5% in goroutine stack growth.
func (c *Client) roundTrip(ctx context.Context, method string, payload []byte, args BodyEncoder) (reply []byte, err error) {
	// A call made under a *Request (a relayed one) waits on the
	// Request's connection and deadline, not on a Done child made for it.
	// The default deadline covers the handshake wait too: a peer that
	// accepts the connection but never answers the preamble must fail the
	// call, not wedge it.
	done, deadline := wait(ctx)
	var timer callTimer
	timer.start(ctx, deadline, time.Duration(c.callTimeout.Load()))
	defer timer.release()
	// The handshake settles before the first byte of any call goes out.
	select {
	case <-c.ready:
	default:
		select {
		case <-c.ready:
		case <-c.done:
			return nil, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
		case <-done:
			return nil, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
		case <-timer.C():
			return nil, timer.expired(method)
		}
	}
	id := atomic.AddUint64(&c.nextID, 1)
	ch := replyChans.Get().(chan envelope)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", method, c.closedErr())
	}
	c.pending[id] = ch
	c.mu.Unlock()

	// Every call carries a trace id: the caller's (WithTraceID) when it
	// wants to correlate, else that of the request it is made for (a
	// relayed request keeps the ingress request's), a fresh mint
	// otherwise.
	tid, hasTID := obs.IDFrom(ctx)
	if !hasTID {
		if tr, ok := obs.TraceFrom(ctx); ok && tr.ID != 0 {
			tid = tr.ID
		} else {
			tid = obs.MintID()
		}
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
		replyChans.Put(ch)
		if resp.Status != statusOK {
			return nil, &RemoteError{Err: failure(resp.Status, resp.Payload)}
		}
		return resp.Payload, nil
	case <-done:
		c.abandon(id)
		return nil, fmt.Errorf("wire: call %s: %w", method, ctx.Err())
	case <-timer.C():
		c.abandon(id)
		return nil, timer.expired(method)
	}
}

// abandon forgets a call whose caller stopped waiting; a reply arriving
// later finds no one to hand it to and is dropped.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// CallCtx invokes a server method, decoding the response into reply
// (nil discards it), and abandons the wait when ctx ends. A non-nil
// reply must implement BodyDecoder (it is typed any only because
// benchmark/ hands one through an any). A far handler's failure comes
// back as a *RemoteError wrapping the error the response names:
// errors.As finds an *OverloadError with its retry-after hint, a
// *RedirectError with its target, an *UnavailableError. An abandoned
// call's response is discarded if it arrives later; the server side may
// still run to completion unless its own timeout or the connection's
// death cancels it.
func (c *Client) CallCtx(ctx context.Context, method string, args BodyEncoder, reply any) error {
	bd, ok := reply.(BodyDecoder)
	if reply != nil && !ok {
		return fmt.Errorf("wire: call %s: reply %T implements no BodyDecoder", method, reply)
	}
	payload, err := c.roundTrip(ctx, method, nil, args)
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
