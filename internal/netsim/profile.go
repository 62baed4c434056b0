package netsim

import "time"

// Profile is a named bundle of link conditions — the bandwidth, one-way
// latency, and packet-loss rate of a client class. Profiles parameterize
// both the analytic Link model (experiments) and the ThrottledConn shim
// (integration tests), so E15 and the QoS acceptance suite speak the
// same vocabulary.
type Profile struct {
	Name      string
	Bandwidth int64         // bytes per second, before loss
	Latency   time.Duration // one-way propagation delay
	Loss      float64       // fraction of packets lost and retransmitted, [0, 1)
}

// The three client classes the paper's remote-clinic setting implies:
// modem-connected field sites, early-mobile links, and the hospital LAN.
var (
	// Dialup: 56 kbit/s modem, long RTT, noisy line.
	Dialup = Profile{Name: "dialup", Bandwidth: 7_000, Latency: 150 * time.Millisecond, Loss: 0.02}
	// ThreeG: 384 kbit/s UMTS-class downlink.
	ThreeG = Profile{Name: "3g", Bandwidth: 48_000, Latency: 80 * time.Millisecond, Loss: 0.01}
	// LAN: 100 Mbit/s switched ethernet, effectively lossless.
	LAN = Profile{Name: "lan", Bandwidth: 12_500_000, Latency: time.Millisecond, Loss: 0}
)

// Profiles lists the presets worst-first.
func Profiles() []Profile { return []Profile{Dialup, ThreeG, LAN} }

// EffectiveBandwidth is the goodput after loss: every lost packet is
// retransmitted, so a loss rate of f costs a 1−f factor of the raw rate.
func (p Profile) EffectiveBandwidth() int64 {
	bw := int64(float64(p.Bandwidth) * (1 - p.Loss))
	if bw < 1 {
		bw = 1
	}
	return bw
}

// Link builds the analytic model for the profile.
func (p Profile) Link() (*Link, error) {
	return NewLink(p.EffectiveBandwidth(), p.Latency)
}
