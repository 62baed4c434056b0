package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mmconf/internal/obs"
	"mmconf/internal/wire"
)

// This file is the request path: the one step every RPC takes between
// the wire layer handing it over and the handler's answer going back.
// dispatch runs it in a fixed order:
//
//  1. clock and trace: one start time, stamped on the obs.Trace the
//     request carries inline (the *wire.Request the wire layer made is
//     the request's context, its trace and, after admission, its
//     deadline — one allocation for all three);
//  2. route: the cluster seam (Cluster.Route) may answer a room request
//     here — redirect, relay, refusal — before it takes an admission
//     slot;
//  3. admit: the peer's token bucket, then a limiter slot, by the
//     priority class the method was registered with;
//  4. run: the handler under the request deadline, set on the request
//     after admission (admission waits do not spend it), a panic
//     recovered into an error response;
//  5. account: one end time, and the one duration from the start to it
//     is what Stats, the trace ring and the slow log record; the limiter
//     learns its service time from the same end time.

// method is one registered RPC as dispatch sees it: its name, its
// admission class and its statistics recorder (both resolved once, at
// Register) and its handler.
type method struct {
	name  string
	class wire.Priority
	h     wire.Handler
	stats *wire.MethodRecorder
}

// peerBucketKey stores a connection's token bucket in its peer meta.
const peerBucketKey = "admission.bucket"

// dispatch is the request step; see the top of the file for its order.
func (s *Server) dispatch(ctx context.Context, m *method, p *wire.Peer, payload []byte) (result any, err error) {
	req, ok := ctx.(*wire.Request)
	if !ok {
		return nil, fmt.Errorf("server: %s reached the request step outside a wire request", m.name)
	}
	start := time.Now()
	tr := req.Trace()
	tr.Begin = start
	var admitted time.Time // when a limiter slot was granted; zero while none is held
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("server: internal error in %s: %v\n%s", m.name, r, debug.Stack())
		}
		end := time.Now()
		if !admitted.IsZero() {
			s.limiter.Release(end.Sub(admitted))
		}
		d := end.Sub(start)
		m.stats.Observe(d, err)
		s.tracer.Observe(tr, d, err)
		if d >= s.slow {
			s.logf("server: slow request %s from peer %d: %v (err=%v)", m.name, p.ID, d, err)
		}
	}()
	if s.cluster != nil {
		if result, routed, err := s.cluster.Route(ctx, p, m.name, payload); routed {
			return result, err
		}
	}
	if admitted, err = s.admit(ctx, p, m.class, tr); err != nil {
		return nil, err
	}
	from := admitted
	if from.IsZero() {
		from = start // no slot to wait for: admission took no time
	}
	req.SetDeadline(from.Add(s.timeout))
	return m.h(req, p, payload)
}

// admit charges the peer's token bucket, then takes a slot from the
// shared limiter — queueing (bounded, priority-aware, deadline-shed)
// when the server is saturated. It returns when the slot was granted
// (zero when admission holds no slot for the request), or an
// *wire.OverloadError with a retry-after hint when the request is shed.
// The time from the request's start to its admission is recorded as the
// trace's "admission" span.
func (s *Server) admit(ctx context.Context, p *wire.Peer, class wire.Priority, tr *obs.Trace) (time.Time, error) {
	// Control traffic is exempt from the per-peer bucket: rate limits
	// exist to stop one peer flooding bulk work, and a rate-limited peer
	// must still be able to leave cleanly, poll stats, and keep its
	// session alive.
	var bucket *wire.TokenBucket
	if s.perPeerRate > 0 && class != wire.PriorityControl {
		bucket = s.bucket(p)
		if ok, ra := bucket.Take(tr.Begin); !ok {
			s.ctr.admission.Shed(wire.ShedReasonRate)
			return time.Time{}, &wire.OverloadError{Reason: wire.ShedReasonRate, RetryAfter: ra}
		}
	}
	if s.limiter == nil {
		return time.Time{}, nil
	}
	err := s.limiter.Acquire(ctx, class, s.queueTimeout)
	now := time.Now()
	tr.AddSpan("admission", tr.Begin, now.Sub(tr.Begin))
	if err != nil {
		// The charged token bought no work: refund it so a shed request
		// doesn't also burn the peer's rate budget and rate-shed the very
		// retry the hint asks for.
		if bucket != nil {
			bucket.Refund()
		}
		var oe *wire.OverloadError
		if errors.As(err, &oe) {
			s.ctr.admission.Shed(oe.Reason)
		}
		return time.Time{}, err
	}
	s.ctr.admission.Admitted()
	return now, nil
}

// bucket returns the peer's token bucket, making it on the peer's first
// rate-limited request.
func (s *Server) bucket(p *wire.Peer) *wire.TokenBucket {
	if b, ok := p.Meta(peerBucketKey); ok {
		return b.(*wire.TokenBucket)
	}
	return p.MetaSetDefault(peerBucketKey, wire.NewTokenBucket(s.perPeerRate, s.perPeerBurst)).(*wire.TokenBucket)
}
