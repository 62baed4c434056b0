package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"mmconf/internal/wire"
)

// This file is the client's endpoint set: the resolver every connect
// dials through (one address, a cluster's node endpoints, or a fixed
// dial function), and the redirect-following that moves the connection
// to a room's owning node when the routing tier answers with
// wire.RedirectError. Together with the reconnect supervisor this closes
// the failover loop: owner dies → redial (rotating endpoints) → resume is
// redirected to the new owner → sessions replay there.

// AddrDialFunc dials a specific address — the shape a cluster resolver
// needs (netsim's Faults.DialContext satisfies it in tests).
type AddrDialFunc func(ctx context.Context, addr string) (net.Conn, error)

// NetDial is the plain TCP AddrDialFunc.
func NetDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// resolver is the client's endpoint set: it picks which endpoint the
// next dial goes to — the redirect-preferred address when the routing
// tier named one, otherwise a rotation over the configured endpoints
// (advanced on dial failure and on cluster-unavailable rejections).
type resolver struct {
	dialAddr AddrDialFunc
	// byAddr reports whether dialAddr reaches the address it is given. A
	// fixed dialer (NewOverDialer) reaches its one endpoint whatever the
	// address, so it cannot follow a redirect or rotate away.
	byAddr bool

	mu        sync.Mutex
	addrs     []string
	next      int
	preferred string
}

// fixedEndpoint is the one-endpoint set over a dial function that takes no
// address.
func fixedEndpoint(dial DialFunc) *resolver {
	return &resolver{
		dialAddr: func(ctx context.Context, _ string) (net.Conn, error) { return dial(ctx) },
		addrs:    []string{""},
	}
}

// follow pins the next dials to addr, a redirect's target, and reports
// whether the set can reach it; a fixed dialer cannot, and pins nothing.
func (r *resolver) follow(addr string) bool {
	if !r.byAddr {
		return false
	}
	r.mu.Lock()
	r.preferred = addr
	r.mu.Unlock()
	return true
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

// dial connects to the preferred endpoint first, the rotation otherwise,
// advancing past endpoints that fail.
func (r *resolver) dial(ctx context.Context) (net.Conn, error) {
	r.mu.Lock()
	addr := r.preferred
	if addr == "" {
		addr = r.addrs[r.next%len(r.addrs)]
	}
	r.mu.Unlock()
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
	if dial == nil {
		dial = NetDial
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: resolver needs at least one endpoint")
	}
	return open(user, &resolver{dialAddr: dial, byAddr: true, addrs: slices.Clone(addrs)}, opts)
}

// maxRedirectHops bounds how many times one call chases ownership
// moves before surfacing the redirect to the caller.
const maxRedirectHops = 3

// followRedirect reacts to a call's error: a redirect, within the hop
// bound and to an address the endpoint set can reach, moves the
// connection to the room's owner through connect, resuming the client's
// sessions there. genBefore is the connection generation the call ran
// on: if the connection has changed since (another call moved it first,
// or the supervisor reconnected), the move is taken as done. retry
// reports whether the caller should re-issue the call.
func (c *Client) followRedirect(ctx context.Context, genBefore uint64, err error, hops *int) (retry bool) {
	var re *wire.RedirectError
	if !errors.As(err, &re) || *hops >= maxRedirectHops || !c.resolver.follow(re.Addr) {
		return false
	}
	*hops++
	c.migrateMu.Lock()
	defer c.migrateMu.Unlock()
	c.mu.Lock()
	state, gen := c.state, c.gen
	c.mu.Unlock()
	switch {
	case state != stateActive:
		return false // closed, or the supervisor is redialing
	case gen != genBefore:
		return true // the connection already moved; retry where it is now
	}
	if err := c.connect(ctx); err != nil {
		c.abortResumes()
		return false
	}
	c.redirectsFollowed.Add(1)
	return true
}
