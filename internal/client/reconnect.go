package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"mmconf/internal/wire"
)

// This file is the client half of the fault-tolerant session layer: a
// supervisor watches the wire connection, and when it dies redials with
// exponential backoff, then resumes every joined room from its last seen
// event sequence (the server holds dropped sessions for a grace period —
// see room.Detach/Resume). In-flight and new calls during an outage fail
// fast with ErrReconnecting instead of hanging.

// ErrReconnecting reports a call attempted while the connection is down
// and being redialed. The call was not sent; retry after the stream
// resumes (or treat it as failed).
var ErrReconnecting = errors.New("client: reconnecting")

// ErrClosed reports a call on a client that is closed — by Close, or
// because the reconnect budget ran out.
var ErrClosed = errors.New("client: closed")

// DialFunc establishes the client's transport. ctx bounds the attempt.
type DialFunc func(ctx context.Context) (net.Conn, error)

// netDialer is the default TCP DialFunc for an address.
func netDialer(addr string) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

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

// Options tunes the client's fault tolerance. The zero value keeps the
// historical behavior: no reconnection, 5s connect timeout, unbounded
// calls.
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
	// RetryOverloaded retries a call shed by the server's admission
	// control up to this many times, sleeping the server's retry-after
	// hint between attempts (default 0: overload errors surface to the
	// caller immediately; negative is treated as 0).
	RetryOverloaded int
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
	if o.RetryOverloaded < 0 {
		o.RetryOverloaded = 0
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
	// migrations to a room's owning node (resolver clients only).
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
// reconnect errors, follows cluster redirects by migrating the
// connection to the owning node, and (with Options.RetryOverloaded)
// backs off per the server's retry-after hint when a request is shed
// by admission control, then retries.
func (c *Client) call(ctx context.Context, method string, req wire.BodyEncoder, resp any) error {
	hops := 0
	for retried := 0; ; {
		c.mu.Lock()
		gen := c.gen
		c.mu.Unlock()
		err := c.callOnce(ctx, method, req, resp)
		if err == nil {
			return nil
		}
		if c.handleRouting(ctx, gen, err, &hops) {
			continue
		}
		var oe *wire.OverloadError
		if !errors.As(err, &oe) || retried >= c.opts.RetryOverloaded {
			return err
		}
		retried++
		if werr := c.waitRetry(ctx, oe.RetryAfter); werr != nil {
			return fmt.Errorf("client: call %s: %w (while backing off from %v)", method, werr, err)
		}
	}
}

// waitRetry sleeps an overload backoff, aborting early when the caller
// gives up or the client closes.
func (c *Client) waitRetry(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closeCh:
		return ErrClosed
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
	if err != nil && errors.Is(err, wire.ErrClosed) && c.opts.Reconnect && c.dial != nil {
		// The transport died under the call; the supervisor is (or will
		// shortly be) redialing. Surface the typed state, not the raw
		// wire error.
		return fmt.Errorf("client: call %s: %w", method, ErrReconnecting)
	}
	return err
}

// supervise waits for the given connection to die and, if it is still
// the client's current one, starts the reconnect loop (or stands down:
// closed client, superseded connection, or reconnection disabled).
func (c *Client) supervise(rpc *wire.Client, gen uint64) {
	select {
	case <-rpc.Done():
	case <-c.closeCh:
		return
	}
	c.mu.Lock()
	if c.state != stateActive || c.gen != gen {
		c.mu.Unlock()
		return
	}
	if !c.opts.Reconnect || c.dial == nil {
		// Historical behavior: the drop is terminal, calls surface wire
		// errors directly.
		c.mu.Unlock()
		return
	}
	c.state = stateReconnecting
	sessions := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	for _, s := range sessions {
		s.beginResume()
	}
	c.reconnectLoop(sessions)
}

// reconnectLoop redials with backoff until the connection and every
// session are restored, the budget runs out, or the client closes.
func (c *Client) reconnectLoop(sessions []*Session) {
	// hint carries the server's retry-after from an overloaded resume
	// attempt: the next redial waits at least that long, so a fleet of
	// reconnecting clients does not re-stampede a saturated server.
	var hint time.Duration
	for attempt := 1; c.opts.MaxAttempts < 0 || attempt <= c.opts.MaxAttempts; attempt++ {
		delay := c.opts.Backoff.delay(attempt)
		if hint > delay {
			delay = hint
		}
		hint = 0
		select {
		case <-time.After(delay):
		case <-c.closeCh:
			for _, s := range sessions {
				s.abortResume()
			}
			return
		}
		c.attempts.Add(1)
		dctx, cancel := context.WithTimeout(context.Background(), c.opts.ConnectTimeout)
		conn, err := c.dial(dctx)
		cancel()
		if err != nil {
			c.failures.Add(1)
			continue
		}
		rpc := wire.NewClient(conn)
		rpc.OnPush(c.onPush)
		if c.opts.CallTimeout > 0 {
			rpc.SetCallTimeout(c.opts.CallTimeout)
		}
		if err := c.resumeSessions(rpc, sessions); err != nil {
			// The fresh connection died during resume (or the server shed
			// the resume under overload); close it and pay another
			// attempt, honoring the server's retry-after if it sent one.
			var oe *wire.OverloadError
			if errors.As(err, &oe) {
				hint = oe.RetryAfter
			}
			rpc.Close()
			c.failures.Add(1)
			continue
		}
		c.mu.Lock()
		if c.state == stateClosed {
			c.mu.Unlock()
			rpc.Close()
			return
		}
		c.rpc = rpc
		c.state = stateActive
		c.gen++
		gen := c.gen
		c.mu.Unlock()
		c.successes.Add(1)
		go c.supervise(rpc, gen)
		return
	}
	// Budget exhausted: the outage is terminal.
	c.gaveUp.Add(1)
	c.mu.Lock()
	if c.state == stateReconnecting {
		c.state = stateClosed
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	for _, s := range sessions {
		s.abortResume()
	}
}

// resumeSessions re-enters every joined room over a fresh connection,
// asking the server to resume the detached (user, room) session and
// replay from the last sequence this client delivered. A transport
// error aborts (the whole attempt retries); a server-side refusal marks
// just that session out of sync and moves on.
func (c *Client) resumeSessions(rpc *wire.Client, sessions []*Session) error {
	timeout := c.opts.CallTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	for _, s := range sessions {
		// resume re-parks the session for this attempt: a session restored
		// by a previous attempt whose connection then died mid-resume must
		// gate pushes again while its replay is re-fetched.
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := s.resume(ctx, rpc.CallCtx)
		cancel()
		var re *wire.RedirectError
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrClosed), errors.Is(err, context.DeadlineExceeded):
			// With a resolver, a resume that timed out silently is a
			// black-holed endpoint (partitioned node): rotate so the next
			// attempt tries somewhere else instead of pinning the loop.
			if c.resolver != nil && errors.Is(err, context.DeadlineExceeded) {
				c.resolver.rotate()
			}
			return err
		case errors.Is(err, wire.ErrOverloaded):
			// The server shed the resume: the session is still parked
			// server-side; retry the whole attempt after the hint rather
			// than marking this session out of sync.
			return err
		case errors.As(err, &re) && c.resolver != nil:
			// This node no longer owns the session's room: point the
			// resolver at the owner and retry the whole attempt there.
			c.resolver.prefer(re.Addr)
			return err
		case errors.Is(err, wire.ErrUnavailable) && c.resolver != nil:
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
