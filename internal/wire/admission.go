package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mmconf/internal/obs"
)

// This file is the overload-protection layer of the dispatch pipeline:
// a global concurrency limiter with a bounded, priority-aware wait queue
// (Limiter), a per-peer token-bucket rate limit (TokenBucket), and the
// Admission interceptor that threads both through every request. Past
// saturation the server sheds excess work quickly — with a typed
// OverloadError carrying a retry-after hint — instead of queueing
// unboundedly until every request misses its deadline.

// Priority classes order requests for admission: when the server is
// saturated, higher classes (lower values) are admitted first and shed
// last. Control traffic (join/resume/leave, metrics) keeps sessions
// alive and must survive overload; bulk media fetches are the first to
// go — they are retryable and each one is expensive.
type Priority int

const (
	// PriorityControl is session-control traffic: shed last.
	PriorityControl Priority = iota
	// PriorityInteractive is the conference hot path (choices, chat,
	// annotations): shed after bulk.
	PriorityInteractive
	// PriorityBulk is heavy object traffic (media fetches): shed first.
	PriorityBulk

	numPriorities = 3
)

// String names the class.
func (p Priority) String() string {
	switch p {
	case PriorityControl:
		return "control"
	case PriorityInteractive:
		return "interactive"
	case PriorityBulk:
		return "bulk"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Shed reasons carried by OverloadError.Reason.
const (
	ShedReasonQueueFull = "queue full"
	ShedReasonDeadline  = "queue deadline exceeded"
	ShedReasonDisplaced = "displaced by higher priority"
	ShedReasonRate      = "per-peer rate limit"
)

// ErrOverloaded is the sentinel every admission-control rejection
// matches (errors.Is). The concrete error is *OverloadError, which
// carries the retry-after hint.
var ErrOverloaded = errors.New("wire: overloaded")

// OverloadError reports a request shed by admission control, with a
// server-computed hint for when a retry is likely to be admitted.
// Clients honor the hint instead of hammering a saturated server.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

// overloadSep joins reason and hint in the wire string form.
const (
	overloadPrefix = "wire: overloaded: "
	overloadSep    = "; retry after "
)

// Error renders the deterministic wire form ParseOverload inverts.
func (e *OverloadError) Error() string {
	return overloadPrefix + e.Reason + overloadSep + e.RetryAfter.String()
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ParseOverload recovers a typed overload error from its string form —
// the shape a response error takes after crossing the wire as a plain
// message. The client side uses it to hand callers back the typed
// *OverloadError with the server's retry-after hint intact.
func ParseOverload(msg string) (*OverloadError, bool) {
	rest, ok := strings.CutPrefix(msg, overloadPrefix)
	if !ok {
		return nil, false
	}
	i := strings.LastIndex(rest, overloadSep)
	if i < 0 {
		return nil, false
	}
	d, err := time.ParseDuration(rest[i+len(overloadSep):])
	if err != nil {
		return nil, false
	}
	return &OverloadError{Reason: rest[:i], RetryAfter: d}, true
}

// waiter is one queued request waiting for an execution slot. Exactly
// one value is ever delivered on ch: nil (slot granted) or an
// *OverloadError (displaced).
type waiter struct {
	ch chan error
}

// Limiter is a global concurrency limiter with a bounded wait queue:
// at most maxInflight requests execute at once, at most maxQueue wait,
// and everything beyond that is shed immediately. The queue is segmented
// by class — freed slots go to control traffic first, and when the queue
// is full an arriving control request displaces the newest bulk waiter
// rather than being shed itself. A small reserve above maxInflight is
// held for control traffic so a join or stats call never waits behind a
// full complement of bulk transfers (the reserve is meaningful because
// control handlers are orders of magnitude cheaper than the bulk work
// the cap is sized for).
type Limiter struct {
	mu          sync.Mutex
	maxInflight int
	maxQueue    int
	reserve     int // extra slots only PriorityControl may occupy
	inflight    int
	queued      int
	queues      [numPriorities][]*waiter
	// svcEWMA tracks recent handler service time (ns); the retry-after
	// hint is the estimated queue drain time derived from it.
	svcEWMA float64
}

// NewLimiter builds a limiter admitting maxInflight concurrent requests
// with a wait queue of queueDepth. maxInflight < 1 is clamped to 1;
// queueDepth < 0 to 0 (no queue: saturation sheds immediately).
func NewLimiter(maxInflight, queueDepth int) *Limiter {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Limiter{
		maxInflight: maxInflight,
		maxQueue:    queueDepth,
		reserve:     max(1, maxInflight/4),
	}
}

// capFor is the inflight ceiling an arrival of the given class sees:
// control traffic may spill into the reserved lane.
func (l *Limiter) capFor(class Priority) int {
	if class == PriorityControl {
		return l.maxInflight + l.reserve
	}
	return l.maxInflight
}

// classIndex maps a priority to its wait queue.
func (l *Limiter) classIndex(class Priority) int {
	if class < 0 || class >= numPriorities {
		return int(PriorityInteractive)
	}
	return int(class)
}

// Acquire takes an execution slot, waiting in the bounded queue up to
// queueTimeout (<= 0: as long as ctx allows). It returns nil with the
// slot held (pair with Release), an *OverloadError when shed, or
// ctx.Err() when the caller gave up first.
func (l *Limiter) Acquire(ctx context.Context, class Priority, queueTimeout time.Duration) error {
	l.mu.Lock()
	if l.inflight < l.capFor(class) {
		l.inflight++
		l.mu.Unlock()
		return nil
	}
	ci := l.classIndex(class)
	if l.queued >= l.maxQueue {
		// Full queue: a higher-priority arrival displaces the newest
		// waiter of the lowest queued class; everything else is shed.
		if !l.displaceLocked(ci) {
			err := l.overloadLocked(ShedReasonQueueFull)
			l.mu.Unlock()
			return err
		}
	}
	w := &waiter{ch: make(chan error, 1)}
	l.queues[ci] = append(l.queues[ci], w)
	l.queued++
	l.mu.Unlock()

	var deadline <-chan time.Time
	if queueTimeout > 0 {
		t := time.NewTimer(queueTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case err := <-w.ch:
		return err
	case <-deadline:
		// A concurrent grant wins (err nil): the caller runs and Releases.
		err, _ := l.abandon(w, ci, ShedReasonDeadline)
		return err
	case <-ctx.Done():
		err, granted := l.abandon(w, ci, "")
		if granted {
			// A concurrent Release granted the slot after the caller gave
			// up. The caller won't run, so hand the slot straight back —
			// otherwise it would leak and ratchet capacity down.
			l.Release(0)
		} else if err != nil {
			return err // displaced concurrently
		}
		return ctx.Err()
	}
}

// abandon removes w from its queue after a timeout or cancellation.
// If the slot was granted (or the waiter displaced) concurrently, that
// outcome wins: granted reports the slot-granted case — the caller now
// owns a slot it must either use (return err nil, run, Release) or
// return via Release. When w was still queued, err is the shed error
// for shedReason ("": nil, so the caller can surface its context error
// instead).
func (l *Limiter) abandon(w *waiter, ci int, shedReason string) (err error, granted bool) {
	l.mu.Lock()
	for i, q := range l.queues[ci] {
		if q == w {
			l.queues[ci] = append(l.queues[ci][:i], l.queues[ci][i+1:]...)
			l.queued--
			if shedReason != "" {
				err = l.overloadLocked(shedReason)
			}
			l.mu.Unlock()
			return err, false
		}
	}
	l.mu.Unlock()
	// Resolved concurrently: honor whatever was delivered — nil means a
	// Release granted the slot to w.
	err = <-w.ch
	return err, err == nil
}

// displaceLocked evicts the newest waiter of the lowest-priority
// nonempty class strictly below ci, making queue room for a
// higher-priority arrival. Callers hold l.mu.
func (l *Limiter) displaceLocked(ci int) bool {
	for j := numPriorities - 1; j > ci; j-- {
		q := l.queues[j]
		if len(q) == 0 {
			continue
		}
		victim := q[len(q)-1]
		l.queues[j] = q[:len(q)-1]
		l.queued--
		victim.ch <- l.overloadLocked(ShedReasonDisplaced)
		return true
	}
	return false
}

// Release returns a slot after a request ran for d, handing freed
// capacity to the highest-priority waiters whose class ceiling admits
// them — a release out of the control reserve does not promote a bulk
// waiter past the main cap. d <= 0 records no service-time sample
// (a slot returned unused, e.g. granted to an already-cancelled
// waiter).
func (l *Limiter) Release(d time.Duration) {
	l.mu.Lock()
	if d > 0 {
		ns := float64(d)
		if l.svcEWMA == 0 {
			l.svcEWMA = ns
		} else {
			l.svcEWMA += 0.1 * (ns - l.svcEWMA)
		}
	}
	l.inflight--
	var grants []*waiter
	for i := range l.queues {
		for len(l.queues[i]) > 0 && l.inflight < l.capFor(Priority(i)) {
			w := l.queues[i][0]
			l.queues[i] = l.queues[i][1:]
			l.queued--
			l.inflight++
			grants = append(grants, w)
		}
	}
	l.mu.Unlock()
	for _, w := range grants {
		w.ch <- nil
	}
}

// overloadLocked builds the shed error with the current retry-after
// estimate. Callers hold l.mu.
func (l *Limiter) overloadLocked(reason string) *OverloadError {
	return &OverloadError{Reason: reason, RetryAfter: l.retryAfterLocked()}
}

// retryAfterLocked estimates when a retry is likely to be admitted: the
// time for the current queue (plus the retry itself) to drain at the
// observed service rate, clamped to a sane band. Callers hold l.mu.
func (l *Limiter) retryAfterLocked() time.Duration {
	svc := l.svcEWMA
	if svc <= 0 {
		svc = float64(2 * time.Millisecond)
	}
	ra := time.Duration(svc * float64(l.queued+1) / float64(l.maxInflight))
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > 5*time.Second {
		ra = 5 * time.Second
	}
	return ra
}

// Inflight reports how many admitted requests are currently executing.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Queued reports how many requests are waiting for a slot — the
// queue-depth gauge of the metrics surface.
func (l *Limiter) Queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queued
}

// TokenBucket is a standard rate limiter: capacity burst, refilled at
// rate tokens per second. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a full bucket. burst < 1 defaults to the rate
// rounded up (minimum 1), so a 0.5/s limiter still admits single
// requests.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if burst < 1 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// Take spends one token. When the bucket is empty it reports false and
// how long until a token will be available — the retry-after hint.
func (b *TokenBucket) Take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	} else if now.After(b.last) {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// Refund returns one token to the bucket, clamped to burst — used when
// a charged request was subsequently shed before any work ran, so the
// peer's rate budget is only spent on requests the server attempted.
func (b *TokenBucket) Refund() {
	b.mu.Lock()
	b.tokens = math.Min(b.burst, b.tokens+1)
	b.mu.Unlock()
}

// Tokens reports the current token balance (tests and gauges).
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Admission counter names recorded into the configured Stats sink.
const (
	// CounterAdmitted counts requests that passed admission control.
	CounterAdmitted = "admission.admitted"
	// CounterShedQueueFull / Deadline / Displaced / Rate split shed
	// requests by cause: arrival at a full queue, queue-deadline expiry,
	// displacement by a higher-priority arrival, per-peer rate limit.
	CounterShedQueueFull = "admission.shed.queue_full"
	CounterShedDeadline  = "admission.shed.deadline"
	CounterShedDisplaced = "admission.shed.displaced"
	CounterShedRate      = "admission.shed.rate"
)

// shedCounter maps an OverloadError reason to its counter name.
func shedCounter(reason string) string {
	switch reason {
	case ShedReasonQueueFull:
		return CounterShedQueueFull
	case ShedReasonDeadline:
		return CounterShedDeadline
	case ShedReasonDisplaced:
		return CounterShedDisplaced
	case ShedReasonRate:
		return CounterShedRate
	}
	return "admission.shed.other"
}

// peerBucketKey stores the per-connection token bucket in peer meta.
const peerBucketKey = "admission.bucket"

// AdmissionConfig tunes the Admission interceptor.
type AdmissionConfig struct {
	// Limiter is the shared concurrency limiter (nil: no concurrency
	// limiting, only per-peer rate limits apply).
	Limiter *Limiter
	// QueueTimeout sheds a queued request that cannot get a slot in
	// time (<= 0: wait as long as the request context allows).
	QueueTimeout time.Duration
	// Classes maps method names to priority classes; unmapped methods
	// are PriorityInteractive.
	Classes map[string]Priority
	// PerPeerRate admits a sustained per-connection request rate in
	// requests/second (<= 0: unlimited); PerPeerBurst is the bucket's
	// burst allowance.
	PerPeerRate  float64
	PerPeerBurst int
	// Stats receives the admission.* counters (nil: uncounted).
	Stats *Stats
}

// count records one admission counter into the configured sink.
func (cfg *AdmissionConfig) count(name string) {
	if cfg.Stats != nil {
		cfg.Stats.Add(name, 1)
	}
}

// Admission is the overload-protection interceptor: it charges the
// peer's token bucket, then takes a slot from the shared limiter —
// queueing (bounded, priority-aware, deadline-shed) when the server is
// saturated. Shed requests fail fast with an *OverloadError carrying a
// retry-after hint; the wait for a slot is recorded as an "admission"
// span on the request trace.
func Admission(cfg AdmissionConfig) Interceptor {
	return func(next Handler) Handler {
		if cfg.Limiter == nil && cfg.PerPeerRate <= 0 {
			return next
		}
		return func(ctx context.Context, p *Peer, payload []byte) (any, error) {
			class := PriorityInteractive
			if method, ok := ContextMethod(ctx); ok {
				if c, ok := cfg.Classes[method]; ok {
					class = c
				}
			}
			// Control traffic is exempt from the per-peer bucket: rate
			// limits exist to stop one peer flooding bulk work, and a
			// rate-limited peer must still be able to leave cleanly, poll
			// stats, and keep its session alive.
			var bucket *TokenBucket
			if cfg.PerPeerRate > 0 && p != nil && class != PriorityControl {
				bucket = p.MetaSetDefault(peerBucketKey, NewTokenBucket(cfg.PerPeerRate, cfg.PerPeerBurst)).(*TokenBucket)
				if ok, ra := bucket.Take(time.Now()); !ok {
					cfg.count(CounterShedRate)
					return nil, &OverloadError{Reason: ShedReasonRate, RetryAfter: ra}
				}
			}
			if cfg.Limiter != nil {
				endWait := obs.StartSpan(ctx, "admission")
				err := cfg.Limiter.Acquire(ctx, class, cfg.QueueTimeout)
				endWait()
				if err != nil {
					// The charged token bought no work: refund it so a shed
					// request doesn't also burn the peer's rate budget and
					// rate-shed the very retry the hint asks for.
					if bucket != nil {
						bucket.Refund()
					}
					var oe *OverloadError
					if errors.As(err, &oe) {
						cfg.count(shedCounter(oe.Reason))
					}
					return nil, err
				}
				cfg.count(CounterAdmitted)
				start := time.Now()
				defer func() { cfg.Limiter.Release(time.Since(start)) }()
			}
			return next(ctx, p, payload)
		}
	}
}
