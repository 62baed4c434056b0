// Package netsim models the network conditions of §4.4 of the paper —
// "communication bandwidth limitations" between the interaction server and
// physically distant clinics. It provides both an analytic link model
// (compute what a transfer would cost, used by the experiment harness so
// benchmarks need not sleep) and a throttled net.Conn wrapper (actually
// paces bytes, used by integration tests that exercise the real RPC path
// under constrained bandwidth).
package netsim

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Link is an analytic model of a network path: fixed propagation latency
// plus serialization at a bandwidth.
type Link struct {
	// Bandwidth in bytes per second.
	Bandwidth int64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// NewLink returns a link model.
func NewLink(bandwidthBps int64, latency time.Duration) (*Link, error) {
	if bandwidthBps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %d must be positive", bandwidthBps)
	}
	if latency < 0 {
		return nil, fmt.Errorf("netsim: negative latency")
	}
	return &Link{Bandwidth: bandwidthBps, Latency: latency}, nil
}

// TransferTime returns the unloaded time to deliver n bytes: latency plus
// serialization delay.
func (l *Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	ser := time.Duration(float64(n) / float64(l.Bandwidth) * float64(time.Second))
	return l.Latency + ser
}

// ThrottledConn wraps a net.Conn, pacing writes to a byte rate. Reads are
// unmodified (throttle both directions by wrapping both ends).
type ThrottledConn struct {
	net.Conn
	bandwidth int64 // bytes per second
	mu        sync.Mutex
	nextFree  time.Time
}

// Throttle wraps conn with a write-side bandwidth limit.
func Throttle(conn net.Conn, bandwidthBps int64) (*ThrottledConn, error) {
	if bandwidthBps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %d must be positive", bandwidthBps)
	}
	return &ThrottledConn{Conn: conn, bandwidth: bandwidthBps}, nil
}

// Write paces the payload: each chunk reserves its serialization time on
// a virtual clock and sleeps until its reservation matures.
func (t *ThrottledConn) Write(p []byte) (int, error) {
	const chunk = 4096
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > chunk {
			n = chunk
		}
		t.mu.Lock()
		now := time.Now()
		start := now
		if t.nextFree.After(start) {
			start = t.nextFree
		}
		ser := time.Duration(float64(n) / float64(t.bandwidth) * float64(time.Second))
		t.nextFree = start.Add(ser)
		wait := t.nextFree.Sub(now)
		t.mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
		m, err := t.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
