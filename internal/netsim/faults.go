package netsim

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the fault-injection half of netsim: where Link and
// ThrottledConn model *bandwidth* (§4.4), Faults models *failure* — the
// dropped connections, silent partitions and flaky dial paths a WAN
// session layer must survive. Tests wrap real connections (or a dialer)
// in a Faults controller and then kill, partition or degrade the
// network mid-session to exercise reconnect and resume machinery.

// errInjected is the error surfaced by injected connection resets.
type errInjected struct{ op string }

func (e errInjected) Error() string { return "netsim: injected " + e.op }

// IsInjected reports whether err came from a netsim fault injection.
func IsInjected(err error) bool {
	_, ok := err.(errInjected)
	return ok
}

// Faults is a shared fault controller for a set of connections. The zero
// value is unusable; construct with NewFaults. All methods are safe for
// concurrent use.
type Faults struct {
	mu      sync.Mutex
	latency time.Duration
	healed  chan struct{} // closed when not partitioned; replaced on Partition
	parted  bool
	conns   map[*FaultyConn]struct{}
	// failDials: >0 fail that many upcoming dials, <0 fail all dials
	// until reset, 0 dial normally.
	failDials int

	dials, dialFails, resets atomic.Int64
}

// NewFaults returns a controller with no faults active.
func NewFaults() *Faults {
	healed := make(chan struct{})
	close(healed)
	return &Faults{healed: healed, conns: make(map[*FaultyConn]struct{})}
}

// SetLatency injects a fixed one-way delay before every read and write
// on wrapped connections (0 disables).
func (f *Faults) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Partition black-holes the network: reads and dials on every wrapped
// connection block (as on a silently dropped WAN path) until Heal, the
// connection closes, or the caller's deadline fires. Writes still
// succeed — as into a kernel socket buffer — so the partition is
// observed the way a real blackhole is: as silence where the response
// should be. Unlike a reset, the peer learns nothing — exactly the
// failure mode that makes client-side call deadlines necessary.
func (f *Faults) Partition() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.parted {
		f.parted = true
		f.healed = make(chan struct{})
	}
}

// Heal ends a partition; blocked operations resume.
func (f *Faults) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parted {
		f.parted = false
		close(f.healed)
	}
}

// KillAll resets every tracked connection mid-stream: both ends see the
// transport die (a dropped TCP connection), and subsequent operations on
// the wrappers fail fast.
func (f *Faults) KillAll() {
	f.mu.Lock()
	conns := make([]*FaultyConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.inject("connection reset")
	}
}

// FailDials makes upcoming dials through Dialer fail fast: n > 0 fails
// the next n attempts, n < 0 fails every attempt until FailDials(0).
func (f *Faults) FailDials(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failDials = n
}

// CutAfterRead arms every currently tracked connection to reset itself
// after it reads n more bytes — a drop mid-push: the client receives a
// partial server message and then the transport dies.
func (f *Faults) CutAfterRead(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.conns {
		c.cutRead.Store(n)
		c.cutArmed.Store(true)
	}
}

// CutAfterWrite arms every currently tracked connection to reset itself
// once it has written n more bytes — a drop mid-call: the write that
// reaches the n-th byte leaves only its bytes up to it, so the request
// leaves partially framed, and the transport dies.
func (f *Faults) CutAfterWrite(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.conns {
		c.cutWrite.Store(n)
		c.cutWriteArmed.Store(true)
	}
}

// Stats reports cumulative dial attempts, injected dial failures, and
// injected connection resets.
func (f *Faults) Stats() (dials, dialFails, resets int64) {
	return f.dials.Load(), f.dialFails.Load(), f.resets.Load()
}

// Wrap tracks conn under the controller and returns the fault-injecting
// wrapper.
func (f *Faults) Wrap(conn net.Conn) *FaultyConn {
	fc := &FaultyConn{Conn: conn, f: f, closeCh: make(chan struct{})}
	f.mu.Lock()
	f.conns[fc] = struct{}{}
	f.mu.Unlock()
	return fc
}

// Dialer returns a dial function for addr whose attempts honor the
// controller's faults (FailDials budgets, partitions, ctx deadlines) and
// whose connections are tracked for KillAll/CutAfter injection. It is
// shaped for client.DialFunc.
func (f *Faults) Dialer(addr string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		return f.DialContext(ctx, addr)
	}
}

// DialContext is the address-parametric form of Dialer: one controller
// serves dials to any number of endpoints (the shape a cluster resolver
// needs — per-node addresses, one fault domain). It honors FailDials
// budgets, blocks during partitions, and tracks the resulting
// connection for KillAll/CutAfter injection. It is shaped for
// client.AddrDialFunc.
func (f *Faults) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	f.dials.Add(1)
	f.mu.Lock()
	if f.failDials != 0 {
		if f.failDials > 0 {
			f.failDials--
		}
		f.mu.Unlock()
		f.dialFails.Add(1)
		return nil, errInjected{op: "dial failure"}
	}
	healed := f.healed
	parted := f.parted
	f.mu.Unlock()
	if parted {
		// A partitioned dial black-holes: block until heal or deadline.
		select {
		case <-healed:
		case <-ctx.Done():
			f.dialFails.Add(1)
			return nil, fmt.Errorf("netsim: dial %s: %w", addr, ctx.Err())
		}
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		f.dialFails.Add(1)
		return nil, err
	}
	return f.Wrap(conn), nil
}

// Listener wraps a net.Listener so every accepted connection is tracked
// under the controller — the server-side half of a fault domain: wrap a
// node's listener and the node's entire incident traffic (inbound and,
// via DialContext, outbound) partitions, degrades and dies together.
func (f *Faults) Listener(l net.Listener) net.Listener {
	return &faultyListener{Listener: l, f: f}
}

type faultyListener struct {
	net.Listener
	f *Faults
}

func (fl *faultyListener) Accept() (net.Conn, error) {
	conn, err := fl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return fl.f.Wrap(conn), nil
}

// FaultyConn is a net.Conn whose traffic is subject to a Faults
// controller: injected latency, partition stalls, and mid-stream resets.
type FaultyConn struct {
	net.Conn
	f *Faults

	closeCh   chan struct{}
	closeOnce sync.Once

	cutRead       atomic.Int64 // remaining read bytes before injected reset
	cutArmed      atomic.Bool
	cutWrite      atomic.Int64 // remaining write bytes before injected reset
	cutWriteArmed atomic.Bool
}

// killed reports whether an injected reset has fired on this connection.
func (c *FaultyConn) killed() bool {
	select {
	case <-c.closeCh:
		return true
	default:
		return false
	}
}

// inject kills the connection with an injected reset: both directions
// die immediately.
func (c *FaultyConn) inject(op string) {
	c.f.resets.Add(1)
	c.closeOnce.Do(func() { close(c.closeCh) })
	_ = c.Conn.Close()
}

// gate applies latency and (when partition is true) partition faults;
// it returns an error when the connection died while gated.
func (c *FaultyConn) gate(partition bool) error {
	c.f.mu.Lock()
	latency := c.f.latency
	healed := c.f.healed
	parted := c.f.parted
	c.f.mu.Unlock()
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-c.closeCh:
			return errInjected{op: "connection reset"}
		}
	}
	if partition && parted {
		select {
		case <-healed:
		case <-c.closeCh:
			return errInjected{op: "connection reset"}
		}
	}
	return nil
}

func (c *FaultyConn) Read(p []byte) (int, error) {
	if err := c.gate(false); err != nil {
		return 0, err
	}
	select {
	case <-c.closeCh:
		return 0, errInjected{op: "connection reset"}
	default:
	}
	n, err := c.Conn.Read(p)
	if err != nil && n == 0 && c.killed() {
		return 0, errInjected{op: "connection reset"}
	}
	// The partition gate sits on the delivery side: a read is usually
	// already parked inside the raw conn when the partition starts, so
	// gating at entry would let in-flight responses through. Holding the
	// bytes until Heal matches TCP through a healed blackhole — data is
	// delayed (retransmitted), not lost.
	if n > 0 {
		if gerr := c.gate(true); gerr != nil {
			return 0, gerr
		}
	}
	if n > 0 && c.cutArmed.Load() {
		if c.cutRead.Add(int64(-n)) <= 0 {
			// The partial message is returned; the transport is dead for
			// everything after it — a reset mid-push.
			c.cutArmed.Store(false)
			c.inject("read cut")
		}
	}
	return n, err
}

func (c *FaultyConn) Write(p []byte) (int, error) {
	if err := c.gate(false); err != nil {
		return 0, err
	}
	select {
	case <-c.closeCh:
		return 0, errInjected{op: "connection reset"}
	default:
	}
	armed, left := c.cutWriteArmed.Load(), c.cutWrite.Load()
	cut := armed && left <= int64(len(p))
	if cut {
		p = p[:max(left, 0)]
	}
	n, err := c.Conn.Write(p)
	if err != nil && n == 0 && c.killed() {
		return 0, errInjected{op: "connection reset"}
	}
	if cut {
		c.cutWriteArmed.Store(false)
		c.inject("write cut")
		return n, errInjected{op: "write cut"}
	}
	if n > 0 && armed {
		c.cutWrite.Add(int64(-n))
	}
	return n, err
}

// Close unregisters the connection and closes the transport.
func (c *FaultyConn) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.f.mu.Lock()
	delete(c.f.conns, c)
	c.f.mu.Unlock()
	return c.Conn.Close()
}
