// Package qos closes the runtime half of the paper's §4.4 performance
// machinery: it estimates each client's effective downlink throughput
// from the server's own socket writes and classifies the estimate into
// the discrete bandwidth levels the CP-net tuning variable understands
// (core.BandwidthVariable: low/medium/high).
//
// The estimator is deliberately passive. The server already writes every
// pushed event and media payload through a per-peer writer goroutine;
// under backpressure (a slow client, a throttled link) those writes block
// in the kernel — or, under netsim, in the throttling shim — for a time
// proportional to the payload size over the link rate. Observing
// (bytes, wall-clock duration) pairs at the write sites therefore
// measures the bottleneck link without any client cooperation or extra
// traffic. An idle connection produces no samples, so the estimate decays
// by not updating rather than drifting toward zero.
package qos

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Level is a discrete link-quality class, ordered worst to best. The
// names align with the CP-net bandwidth tuning variable's domain.
type Level int

// Levels.
const (
	Low Level = iota
	Medium
	High
)

// The level names: the CP-net bandwidth tuning variable's domain values
// (core.BandwidthLow, BandwidthMedium and BandwidthHigh are these).
const (
	LowName    = "low"
	MediumName = "medium"
	HighName   = "high"
)

// String names the level with the tuning-variable domain value.
func (l Level) String() string {
	switch l {
	case Low:
		return LowName
	case Medium:
		return MediumName
	case High:
		return HighName
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Meter is an exponentially weighted moving average over socket-write
// throughput observations. Each observation is one blocking write of n
// bytes that took d of wall clock; its instantaneous rate n/d is folded
// into the average with a weight proportional to d, so a millisecond
// blip cannot displace seconds of steady evidence:
//
//	w = 1 − exp(−d/τ), τ = DefaultTau
//	rate ← rate + w·(n/d − rate)
//
// Meters are safe for concurrent use; the writer goroutine feeds them
// while the QoS control loop reads them.
type Meter struct {
	mu      sync.Mutex
	rate    float64 // bytes/second
	samples int64
}

// DefaultTau is the meter time constant: long enough to ride out a
// single large writev, short enough to track a link change within a few
// control-loop ticks.
const DefaultTau = 2 * time.Second

// NewMeter returns a meter with no observations.
func NewMeter() *Meter { return &Meter{} }

// Observe folds one write of n bytes that took d. Non-positive sizes or
// durations carry no rate information and are ignored.
func (m *Meter) Observe(n int, d time.Duration) {
	if n <= 0 || d <= 0 {
		return
	}
	sec := d.Seconds()
	inst := float64(n) / sec
	w := 1 - math.Exp(-sec/DefaultTau.Seconds())
	m.mu.Lock()
	if m.samples == 0 {
		m.rate = inst
	} else {
		m.rate += w * (inst - m.rate)
	}
	m.samples++
	m.mu.Unlock()
}

// Rate returns the current estimate in bytes/second (0 before any
// observation).
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rate
}

// Samples returns how many observations have been folded in.
func (m *Meter) Samples() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// Bands maps a measured rate onto a Level with hysteresis. The two edges
// split bytes/second into low | medium | high; Hysteresis widens each
// edge into a guard band so a rate hovering exactly at an edge cannot
// flap the tuning variable (and with it the client's whole presentation)
// on every control tick: moving up requires clearing edge·(1+h), moving
// down requires falling below edge·(1−h).
type Bands struct {
	LowMedium  float64 // bytes/sec edge between low and medium
	MediumHigh float64 // bytes/sec edge between medium and high
	Hysteresis float64 // fractional guard width, e.g. 0.25
}

// DefaultBands places dialup-class links (~7 KB/s) in low, 3G-class
// (~48 KB/s) in medium, and LAN-class in high.
func DefaultBands() Bands {
	return Bands{LowMedium: 16e3, MediumHigh: 1e6, Hysteresis: 0.25}
}

// edgeAbove returns the edge between l and l+1.
func (b Bands) edgeAbove(l Level) float64 {
	if l == Low {
		return b.LowMedium
	}
	return b.MediumHigh
}

// Classify returns the level for rate given the current level, moving at
// most as far as the hysteresis-widened edges allow.
func (b Bands) Classify(rate float64, current Level) Level {
	l := current
	for l < High && rate > b.edgeAbove(l)*(1+b.Hysteresis) {
		l++
	}
	if l != current {
		return l
	}
	for l > Low && rate < b.edgeAbove(l-1)*(1-b.Hysteresis) {
		l--
	}
	return l
}

// minSamples gates the estimate: with fewer observations the meter is
// noise and Step holds the current level.
const minSamples = 4

// demotePressure is the queued/budget ratio above which a client is
// demonstrably not draining what it is sent, which forces a one-step
// demotion even if the writes that did complete looked fast.
const demotePressure = 0.75

// Step folds one control tick into a client's level: the meter's rate
// and sample count plus the client's push-budget pressure (queued bytes /
// budget). A client starts at High — the same assume-the-best prior as
// the tuning variable's unconditional ordering — and only moves on
// evidence.
func (b Bands) Step(level Level, rate float64, samples int64, pressure float64) Level {
	if pressure > demotePressure {
		// The queue is backing up faster than the budget refunds: the
		// client cannot keep up at this level no matter what the write
		// timings said (they may have drained into a deep kernel
		// buffer). Pressure overrides the rate signal and steps down.
		if level > Low {
			level--
		}
		return level
	}
	if samples >= minSamples {
		return b.Classify(rate, level)
	}
	return level
}
