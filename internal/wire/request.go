package wire

import (
	"context"
	"sync"
	"time"

	"mmconf/internal/obs"
)

// Request is the one context a request's handler runs under, and the one
// object the request step allocates for it: it carries the frame's trace
// id and the request's obs.Trace inline, and the deadline the
// interaction server sets after admission. Deadline, Err and Value
// answer from its fields. Done makes a context.WithDeadline child of the
// connection's context the first time anything asks for it, so a
// handler that never waits costs no timer, while one that does (a
// limiter queue, a relayed call) still wakes at the deadline and when
// the connection drops. The child is cancelled when the handler returns.
type Request struct {
	conn  context.Context // the connection's: it ends when the peer goes
	trace obs.Trace

	mu       sync.Mutex
	deadline time.Time
	child    context.Context // made by the first Done; nil until then
	cancel   context.CancelFunc
	ended    bool
}

// closedDone is what Done returns once the handler has returned and no
// child was ever made.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Trace returns the request's live trace.
func (r *Request) Trace() *obs.Trace { return &r.trace }

// SetDeadline sets the time the request's work must end by. The
// interaction server calls it once, after admission, so a wait for a
// slot does not spend the handler's time.
func (r *Request) SetDeadline(d time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deadline = d
	if r.child != nil {
		// Done was asked for before the deadline existed (a wait in the
		// admission queue): from here on, Done waits on the deadline too.
		child, cancel := context.WithDeadline(r.child, d)
		outer := r.cancel
		r.child, r.cancel = child, func() { cancel(); outer() }
	}
}

// Deadline implements context.Context. The connection's context has no
// deadline of its own: the request's is the only one.
func (r *Request) Deadline() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deadline, !r.deadline.IsZero()
}

// Done implements context.Context; see Request for when it makes a
// timer.
func (r *Request) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.child == nil {
		if r.ended {
			return closedDone
		}
		if r.deadline.IsZero() {
			r.child, r.cancel = context.WithCancel(r.conn)
		} else {
			r.child, r.cancel = context.WithDeadline(r.conn, r.deadline)
		}
	}
	return r.child.Done()
}

// Err implements context.Context. Without a child it reads the clock:
// a passed deadline is DeadlineExceeded whether or not anything waited.
func (r *Request) Err() error {
	r.mu.Lock()
	child, deadline, ended := r.child, r.deadline, r.ended
	r.mu.Unlock()
	if child != nil {
		return child.Err()
	}
	if err := r.conn.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	if ended {
		return context.Canceled
	}
	return nil
}

// Value implements context.Context: obs.TraceKey is the request's trace,
// anything else is the connection's (or the child's, once there is one,
// so a context derived from the request registers with the child
// instead of watching it from a goroutine).
func (r *Request) Value(key any) any {
	if _, ok := key.(obs.TraceKey); ok {
		return &r.trace
	}
	r.mu.Lock()
	child := r.child
	r.mu.Unlock()
	if child != nil {
		return child.Value(key)
	}
	return r.conn.Value(key)
}

// end marks the handler returned and cancels the child, if one was made.
func (r *Request) end() {
	r.mu.Lock()
	r.ended = true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
