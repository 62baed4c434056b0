package wire

import (
	"context"
	"sync"
	"time"

	"mmconf/internal/obs"
)

// Request is the one context a request's handler runs under: it
// carries the frame's trace id and the request's obs.Trace inline, and
// the deadline the interaction server sets after admission. Deadline,
// Err and Value answer from its fields. Done makes a
// context.WithDeadline child of the connection's context the first time
// anything asks for it, so a handler that never waits costs no timer,
// while one that does (a limiter queue) still wakes at the deadline and
// when the connection drops. The child is cancelled when the handler
// returns. A call on a wire.Client made under a Request that has made
// no child waits on the connection's context and the deadline directly
// (wait), so a relayed call makes no child either.
//
// The Request belongs to the request worker that runs it, and the
// worker resets it for its next request. A handler's context is
// therefore valid until the handler returns, as in net/http: a
// goroutine that outlives the handler must not keep it, nor a context
// that only wraps it in values. A Request whose Done was asked for is
// not reused: whatever holds its child, or the channel, keeps seeing it
// closed, and the worker's next request gets a fresh Request.
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

// reset makes r the context of a new request on the connection whose
// context is conn: its trace holds id, method and peer and no spans, and
// it has no deadline and no child. The worker calls it before each
// request, never on a Request that made a child.
func (r *Request) reset(conn context.Context, id uint64, method string, peer uint64) {
	r.trace.Reset(id, method, peer)
	r.mu.Lock()
	r.conn, r.deadline, r.ended = conn, time.Time{}, false
	r.mu.Unlock()
}

// end marks the handler returned and cancels the child, if one was made.
// It reports whether r may be reset for another request: only if it made
// no child, so nothing outside the handler can still be waiting on it.
func (r *Request) end() (reusable bool) {
	r.mu.Lock()
	r.ended = true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return cancel == nil
}

// wait returns what a call made under ctx selects on beside its reply,
// without asking a *Request for Done: for a Request that has made no
// child, its connection's Done and its deadline (zero if none), which
// the call arms its own timer for. Any other context, or a Request with
// a child, is waited on through its Done, and the deadline is zero.
func wait(ctx context.Context) (done <-chan struct{}, deadline time.Time) {
	r, ok := ctx.(*Request)
	if !ok {
		return ctx.Done(), time.Time{}
	}
	r.mu.Lock()
	direct := r.child == nil && !r.ended
	conn, deadline := r.conn, r.deadline
	r.mu.Unlock()
	// Done takes r.mu: it is asked for only with the lock released.
	if !direct {
		return r.Done(), time.Time{}
	}
	return conn.Done(), deadline
}
