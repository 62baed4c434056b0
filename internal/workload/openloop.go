package workload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/obs"
	"mmconf/internal/wire"
)

// This file is the overload driver: an open-loop load generator whose
// offered rate is independent of how fast the server answers. Closed
// loops self-throttle when the server slows down and so can never push
// it past saturation; an open loop keeps offering work
// at the configured rate, which is exactly the regime admission control
// exists for (experiment E12).

// Op is one unit of offered work: issue a request, return its error.
// The op owns its own deadline (callers typically wrap a per-request
// timeout — the SLO — around the RPC).
type Op func(ctx context.Context) error

// OpenLoopOptions shapes one open-loop run.
type OpenLoopOptions struct {
	// Rate is the offered load in operations per second (required > 0).
	Rate float64
	// Duration is how long the measured window keeps offering work.
	Duration time.Duration
	// Warmup, when positive, precedes the measured window: arrivals are
	// offered at the same rate from t=0, but only ops launched after the
	// warmup mark are tallied (or observed by Hist). The system under
	// test reaches steady state — drained token buckets, settled queues
	// — with no idle gap between warming and measuring.
	Warmup time.Duration
	// MaxOutstanding bounds concurrently in-flight ops (default 4096).
	// Arrivals past the bound are dropped and counted — a real open
	// loop would let them pile up without bound, but the driver has to
	// survive its own experiment.
	MaxOutstanding int
	// Hist, when set, observes the wall time of every completed
	// (successful) op.
	Hist *obs.Histogram
}

// OpenLoopResult tallies one run. Goodput is Completed ops — work the
// server finished within the op's own deadline — per second of Elapsed.
type OpenLoopResult struct {
	// Offered counts arrivals generated at the configured rate
	// (including dropped ones); Completed counts ops that returned nil;
	// Shed counts server-side admission rejections
	// (errors.Is(wire.ErrOverloaded)); Failed counts every other error
	// (timeouts included); Dropped counts arrivals discarded because
	// MaxOutstanding was reached.
	Offered, Completed, Shed, Failed, Dropped int64
	Elapsed                                   time.Duration
}

// Goodput is the completed-work rate in ops/second.
func (r OpenLoopResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// OpenLoop offers op at a fixed rate for the configured duration,
// regardless of completion speed, and tallies the outcome of every
// arrival. It returns once every in-flight op has finished (or ctx is
// cancelled, which stops the arrival process early but still waits).
func OpenLoop(ctx context.Context, op Op, o OpenLoopOptions) OpenLoopResult {
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 4096
	}
	var res OpenLoopResult
	var completed, shed, failed atomic.Int64
	sem := make(chan struct{}, o.MaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	mark := start.Add(o.Warmup)
	deadline := mark.Add(o.Duration)

	// Arrival pacing in 1ms batches: at high rates a per-op timer would
	// be more scheduler than load, so each tick launches however many
	// arrivals the elapsed time owes.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	launched := int64(0)
	genEnd := deadline
pacing:
	for {
		select {
		case <-ctx.Done():
			genEnd = time.Now()
			break pacing
		case now := <-tick.C:
			if now.After(deadline) {
				genEnd = now
				break pacing
			}
			counted := !now.Before(mark)
			due := int64(now.Sub(start).Seconds() * o.Rate)
			for ; launched < due; launched++ {
				if counted {
					res.Offered++
				}
				select {
				case sem <- struct{}{}:
				default:
					if counted {
						res.Dropped++ // driver at capacity: shed at the source
					}
					continue
				}
				wg.Add(1)
				go func(counted bool) {
					defer wg.Done()
					defer func() { <-sem }()
					opStart := time.Now()
					err := op(ctx)
					if !counted {
						return
					}
					switch {
					case err == nil:
						completed.Add(1)
						if o.Hist != nil {
							o.Hist.Observe(time.Since(opStart))
						}
					case errors.Is(err, wire.ErrOverloaded):
						shed.Add(1)
					default:
						failed.Add(1)
					}
				}(counted)
			}
		}
	}
	wg.Wait()
	res.Completed = completed.Load()
	res.Shed = shed.Load()
	res.Failed = failed.Load()
	// Elapsed is the measured generation window, not the post-window
	// drain: completions of counted ops that land during the drain still
	// count, which is standard offered-window accounting.
	if d := genEnd.Sub(mark); d > 0 {
		res.Elapsed = d
	}
	return res
}
