package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"mmconf/internal/wire"
)

// This file is the client's cluster awareness: a resolver that dials
// across a set of node endpoints, and the redirect-following that moves
// the connection to a room's owning node when the routing tier answers
// with wire.RedirectError. Together with the reconnect supervisor this
// closes the failover loop: owner dies → redial (rotating endpoints) →
// resume is redirected to the new owner → sessions replay there.

// AddrDialFunc dials a specific address — the shape a cluster resolver
// needs (netsim's Faults.DialContext satisfies it in tests).
type AddrDialFunc func(ctx context.Context, addr string) (net.Conn, error)

// NetDial is the plain TCP AddrDialFunc.
func NetDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// resolver picks which endpoint the next dial attempt goes to: the
// redirect-preferred address when the routing tier named one, otherwise
// a rotation over the configured endpoints (advanced on dial failure
// and on cluster-unavailable rejections).
type resolver struct {
	dialAddr AddrDialFunc

	mu        sync.Mutex
	addrs     []string
	next      int
	preferred string
}

// prefer pins the next dials to addr (a redirect target).
func (r *resolver) prefer(addr string) {
	r.mu.Lock()
	r.preferred = addr
	r.mu.Unlock()
}

// rotate abandons the current endpoint choice (the node refused or
// cannot be reached): clear any preference and move to the next
// configured endpoint.
func (r *resolver) rotate() {
	r.mu.Lock()
	r.preferred = ""
	r.next++
	r.mu.Unlock()
}

// dial is the resolver's DialFunc: preferred endpoint first, rotation
// otherwise, advancing past endpoints that fail.
func (r *resolver) dial(ctx context.Context) (net.Conn, error) {
	r.mu.Lock()
	addr := r.preferred
	if addr == "" && len(r.addrs) > 0 {
		addr = r.addrs[r.next%len(r.addrs)]
	}
	r.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("client: resolver has no endpoints")
	}
	conn, err := r.dialAddr(ctx, addr)
	if err != nil {
		r.mu.Lock()
		if r.preferred == addr {
			r.preferred = ""
		} else {
			r.next++
		}
		r.mu.Unlock()
		return nil, err
	}
	return conn, nil
}

// NewOverResolver builds a cluster-aware client: dial connects to
// specific addresses, addrs lists the cluster's node endpoints, and
// redirects from the routing tier are followed transparently — the
// client migrates its connection to the owning node (resuming any
// sessions it already holds) and retries the redirected call there.
// The initial connect tries endpoints in order until one answers.
func NewOverResolver(dial AddrDialFunc, addrs []string, user string, opts Options) (*Client, error) {
	if user == "" {
		return nil, fmt.Errorf("client: empty user name")
	}
	if dial == nil {
		dial = NetDial
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: resolver needs at least one endpoint")
	}
	opts.normalize()
	r := &resolver{dialAddr: dial, addrs: append([]string(nil), addrs...)}
	c := newClient(user, r.dial, opts)
	c.resolver = r
	var lastErr error
	for range addrs {
		ctx, cancel := context.WithTimeout(context.Background(), opts.ConnectTimeout)
		conn, err := r.dial(ctx)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		c.attach(wire.NewClient(conn))
		return c, nil
	}
	return nil, fmt.Errorf("client: no endpoint reachable: %w", lastErr)
}

// maxRedirectHops bounds how many times one call chases ownership
// moves before surfacing the redirect to the caller.
const maxRedirectHops = 3

// followRedirect moves the client's connection to the redirect target
// and resumes its sessions there. genBefore is the connection
// generation the redirected call ran on: if the connection has already
// changed (another call migrated first, or the supervisor reconnected),
// the migration is assumed done and the caller just retries. Returns
// nil when the caller should retry the call.
func (c *Client) followRedirect(ctx context.Context, genBefore uint64, addr string) error {
	c.resolver.prefer(addr)
	c.migrateMu.Lock()
	defer c.migrateMu.Unlock()
	c.mu.Lock()
	switch {
	case c.state == stateClosed:
		c.mu.Unlock()
		return ErrClosed
	case c.state == stateReconnecting:
		c.mu.Unlock()
		return ErrReconnecting
	case c.gen != genBefore:
		// Someone already moved the connection; retry where it is now.
		c.mu.Unlock()
		return nil
	}
	old := c.rpc
	sessions := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, c.opts.ConnectTimeout)
	conn, err := c.dial(dctx)
	cancel()
	if err != nil {
		return err
	}
	rpc := wire.NewClient(conn)
	rpc.OnPush(c.onPush)
	if c.opts.CallTimeout > 0 {
		rpc.SetCallTimeout(c.opts.CallTimeout)
	}
	if err := c.resumeSessions(rpc, sessions); err != nil {
		rpc.Close()
		for _, s := range sessions {
			s.abortResume()
		}
		return err
	}
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		rpc.Close()
		return ErrClosed
	}
	c.rpc = rpc
	c.state = stateActive
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.redirectsFollowed.Add(1)
	go c.supervise(rpc, gen)
	// The old connection's supervisor sees a stale generation and
	// stands down.
	if old != nil {
		old.Close()
	}
	return nil
}

// handleRouting reacts to a routing error from a call: follow redirects
// by migrating the connection, surface everything else. retry reports
// whether the caller should re-issue the call.
func (c *Client) handleRouting(ctx context.Context, genBefore uint64, err error, hops *int) (retry bool) {
	if c.resolver == nil || err == nil {
		return false
	}
	var re *wire.RedirectError
	if !errors.As(err, &re) || *hops >= maxRedirectHops {
		return false
	}
	*hops++
	return c.followRedirect(ctx, genBefore, re.Addr) == nil
}

// Resume asks the server to re-admit this client's detached sessions —
// exposed for tests that drive resumes explicitly; normal resumes run
// inside the reconnect supervisor.
func (c *Client) ResumeSession(ctx context.Context, s *Session) error {
	if err := s.resume(ctx, c.call); err != nil {
		s.abortResume()
		return err
	}
	return nil
}
