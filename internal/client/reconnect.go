package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// This file is the client half of the fault-tolerant session layer:
// connect, the one routine that moves the client's connection, and the
// supervisor that watches the wire connection and, when it dies, redials
// with exponential backoff through connect, which resumes every joined
// room from its last seen event sequence (the server holds dropped
// sessions for a grace period — see room.Detach/Resume). In-flight and
// new calls during an outage fail fast with ErrReconnecting instead of
// hanging.

// ErrReconnecting reports a call attempted while the connection is down
// and being redialed. The call was not sent; retry after the stream
// resumes (or treat it as failed).
var ErrReconnecting = errors.New("client: reconnecting")

// ErrClosed reports a call on a client that is closed — by Close, or
// because the reconnect budget ran out.
var ErrClosed = errors.New("client: closed")

// DialFunc establishes the client's transport. ctx bounds the attempt.
type DialFunc func(ctx context.Context) (net.Conn, error)

// Backoff shapes the redial schedule: attempt n sleeps
// Base·Factor^(n-1), capped at Max, with ±Jitter fraction of noise so a
// fleet of dropped clients does not redial in lockstep. Jitter 0 takes
// the 0.2 default; pass a negative Jitter for a deterministic schedule.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
	Jitter float64
}

// delay computes the sleep before the nth redial attempt (1-based).
func (b Backoff) delay(attempt int) time.Duration {
	d := float64(b.Base) * math.Pow(b.Factor, float64(attempt-1))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*rand.Float64()-1)
	}
	return time.Duration(d)
}

// Options tunes the client's fault tolerance. The zero value makes a drop
// terminal (no redial), with a 5s connect timeout and unbounded calls.
type Options struct {
	// Reconnect enables automatic redial + session resume after the
	// connection drops.
	Reconnect bool
	// MaxAttempts bounds one outage's redial budget (default 8;
	// negative: unlimited). Exhausting it closes the client.
	MaxAttempts int
	// Backoff shapes the redial schedule (default 50ms base, 2s max,
	// factor 2, jitter 0.2).
	Backoff Backoff
	// ConnectTimeout bounds each dial attempt (default 5s).
	ConnectTimeout time.Duration
	// CallTimeout bounds every call that has no caller deadline
	// (default 0: unbounded) — without it a silent partition hangs
	// calls forever.
	CallTimeout time.Duration
}

// normalize fills defaulted fields in place.
func (o *Options) normalize() {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	if o.Backoff.Base <= 0 {
		o.Backoff.Base = 50 * time.Millisecond
	}
	if o.Backoff.Max <= 0 {
		o.Backoff.Max = 2 * time.Second
	}
	if o.Backoff.Factor < 1 {
		o.Backoff.Factor = 2
	}
	if o.Backoff.Jitter == 0 {
		o.Backoff.Jitter = 0.2
	}
	if o.Backoff.Jitter < 0 || o.Backoff.Jitter >= 1 {
		o.Backoff.Jitter = 0
	}
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 5 * time.Second
	}
}

// ReconnectStats counts the client's redial activity.
type ReconnectStats struct {
	// Attempts counts dial attempts made by the reconnect loop;
	// Successes counts restored connections (sessions resumed);
	// Failures counts attempts that failed to dial or to resume.
	Attempts, Successes, Failures uint64
	// GaveUp counts outages that exhausted MaxAttempts and closed the
	// client.
	GaveUp uint64
	// Redirects counts cluster redirects followed: connection
	// migrations to a room's owning node (never for a NewOverDialer
	// client, whose one endpoint has no address to move to).
	Redirects uint64
}

// ReconnectStats reports the client's cumulative redial counters.
func (c *Client) ReconnectStats() ReconnectStats {
	return ReconnectStats{
		Attempts:  c.attempts.Load(),
		Successes: c.successes.Load(),
		Failures:  c.failures.Load(),
		GaveUp:    c.gaveUp.Load(),
		Redirects: c.redirectsFollowed.Load(),
	}
}

// call is the single RPC entry point for every client method: it fails
// fast while the connection is down, maps transport death to the typed
// reconnect errors, and follows cluster redirects by migrating the
// connection to the owning node. A call shed by admission control
// surfaces as the server's *wire.OverloadError, retry-after hint intact.
func (c *Client) call(ctx context.Context, method string, req wire.BodyEncoder, resp any) error {
	hops := 0
	for {
		c.mu.Lock()
		gen := c.gen
		c.mu.Unlock()
		err := c.callOnce(ctx, method, req, resp)
		if err == nil || !c.followRedirect(ctx, gen, err, &hops) {
			return err
		}
	}
}

// callOnce issues one RPC attempt against the current connection.
func (c *Client) callOnce(ctx context.Context, method string, req wire.BodyEncoder, resp any) error {
	c.mu.Lock()
	rpc := c.rpc
	state := c.state
	c.mu.Unlock()
	switch state {
	case stateClosed:
		return fmt.Errorf("client: call %s: %w", method, ErrClosed)
	case stateReconnecting:
		return fmt.Errorf("client: call %s: %w", method, ErrReconnecting)
	}
	err := rpc.CallCtx(ctx, method, req, resp)
	if err != nil && errors.Is(err, wire.ErrClosed) && c.opts.Reconnect {
		// The transport died under the call; the supervisor is (or will
		// shortly be) redialing. Surface the typed state, not the raw
		// wire error.
		return fmt.Errorf("client: call %s: %w", method, ErrReconnecting)
	}
	return err
}

// connect moves the client onto a new connection: it dials through the
// endpoint set, resumes every session the client holds at this moment
// over the new connection, and installs it in place of the current one
// (refused with ErrClosed once the client is closed), with a supervisor
// that watches it. It is the one way a connection is made: the
// constructors, each attempt of the redial loop and a redirect differ
// only in the policy around the call. A session left while its resume
// was in flight is left again on the new connection, so a room the user
// left does not come back.
func (c *Client) connect(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, c.opts.ConnectTimeout)
	conn, err := c.resolver.dial(dctx)
	cancel()
	if err != nil {
		return err
	}
	rpc := wire.NewClient(conn)
	rpc.OnPush(c.onPush)
	if c.opts.CallTimeout > 0 {
		rpc.SetCallTimeout(c.opts.CallTimeout)
	}
	held := c.held()
	if err := c.resumeSessions(rpc, held); err != nil {
		rpc.Close()
		return err
	}
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		rpc.Close()
		return ErrClosed
	}
	old := c.rpc
	c.rpc, c.state = rpc, stateActive
	c.gen++
	gen := c.gen
	left := slices.DeleteFunc(held, func(s *Session) bool { return c.sessions[s.Room] != nil })
	c.mu.Unlock()
	go c.supervise(rpc, gen)
	if old != nil {
		old.Close() // its supervisor sees a stale generation and stands down
	}
	for _, s := range left {
		// Best effort, as the user's own leave was: a leave lost with this
		// connection leaves a detached member the server expires.
		lctx, cancel := c.sessionCtx()
		_ = rpc.CallCtx(lctx, proto.MLeaveRoom, &proto.LeaveRoomReq{Room: s.Room, User: c.user}, nil)
		cancel()
	}
	return nil
}

// sessionCtx bounds one resume or leave that connect sends: CallTimeout,
// or 10s when calls are unbounded.
func (c *Client) sessionCtx() (context.Context, context.CancelFunc) {
	timeout := c.opts.CallTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return context.WithTimeout(context.Background(), timeout)
}

// supervise waits for the given connection to die and, if it is still
// the client's current one and reconnection is on, starts the redial
// loop; otherwise it stands down (closed client, superseded connection,
// or a drop that is terminal).
func (c *Client) supervise(rpc *wire.Client, gen uint64) {
	select {
	case <-rpc.Done():
	case <-c.closeCh:
		return
	}
	c.mu.Lock()
	if c.state != stateActive || c.gen != gen || !c.opts.Reconnect {
		c.mu.Unlock()
		return
	}
	c.state = stateReconnecting
	c.mu.Unlock()
	c.reconnectLoop()
}

// reconnectLoop redials with backoff until connect restores the
// connection and every session, the budget runs out, or the client
// closes.
func (c *Client) reconnectLoop() {
	// hint carries the server's retry-after from an overloaded resume
	// attempt: the next redial waits at least that long, so a fleet of
	// reconnecting clients does not re-stampede a saturated server.
	var hint time.Duration
	for attempt := 1; c.opts.MaxAttempts < 0 || attempt <= c.opts.MaxAttempts; attempt++ {
		delay := max(c.opts.Backoff.delay(attempt), hint)
		hint = 0
		select {
		case <-time.After(delay):
		case <-c.closeCh:
			c.abortResumes()
			return
		}
		c.attempts.Add(1)
		err := c.connect(context.Background())
		if err == nil {
			c.successes.Add(1)
			return
		}
		if errors.Is(err, ErrClosed) {
			return
		}
		// The dial failed, or the fresh connection died during resume (or
		// the server shed the resume under overload): pay another
		// attempt, honoring the server's retry-after if it sent one.
		var oe *wire.OverloadError
		if errors.As(err, &oe) {
			hint = oe.RetryAfter
		}
		c.failures.Add(1)
	}
	// Budget exhausted: the outage is terminal.
	c.gaveUp.Add(1)
	c.mu.Lock()
	if c.state == stateReconnecting {
		c.state = stateClosed
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.abortResumes()
}

// abortResumes re-opens the delivery gate of every session a failed
// connect left parked.
func (c *Client) abortResumes() {
	for _, s := range c.held() {
		s.abortResume()
	}
}

// held lists the sessions the client holds now.
func (c *Client) held() []*Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		out = append(out, s)
	}
	return out
}

// resumeSessions re-enters every joined room over a fresh connection,
// asking the server to resume the detached (user, room) session and
// replay from the last sequence this client delivered. A transport
// error aborts (the whole attempt retries); a server-side refusal marks
// just that session out of sync and moves on.
func (c *Client) resumeSessions(rpc *wire.Client, sessions []*Session) error {
	for _, s := range sessions {
		// resume re-parks the session for this attempt: a session restored
		// by a previous attempt whose connection then died mid-resume must
		// gate pushes again while its replay is re-fetched.
		ctx, cancel := c.sessionCtx()
		err := s.resume(ctx, rpc.CallCtx)
		cancel()
		var re *wire.RedirectError
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrClosed), errors.Is(err, context.DeadlineExceeded):
			// A resume that timed out silently is a black-holed endpoint
			// (partitioned node): rotate so the next attempt tries
			// somewhere else instead of pinning the loop.
			if errors.Is(err, context.DeadlineExceeded) {
				c.resolver.rotate()
			}
			return err
		case errors.Is(err, wire.ErrOverloaded):
			// The server shed the resume: the session is still parked
			// server-side; retry the whole attempt after the hint rather
			// than marking this session out of sync.
			return err
		case errors.As(err, &re) && c.resolver.follow(re.Addr):
			// This node no longer owns the session's room: the resolver
			// now points at the owner; retry the whole attempt there.
			return err
		case errors.Is(err, wire.ErrUnavailable) && c.resolver.byAddr:
			// The node cannot serve safely (minority side of a partition,
			// draining): rotate to the next endpoint and retry.
			c.resolver.rotate()
			return err
		default:
			// The server refused (room gone and not recreatable, doc
			// binding changed): this session cannot continue, but the
			// client and its other rooms still can.
			s.mu.Lock()
			s.resync = true
			s.mu.Unlock()
			s.abortResume()
		}
	}
	return nil
}
