package qos_test

import (
	"io"
	"net"
	"testing"
	"time"

	"mmconf/internal/netsim"
	"mmconf/internal/qos"
)

// The estimator must converge on a netsim-shaped link: feeding the meter
// real write timings through a profile-throttled connection yields a
// rate within tolerance of the profile's effective bandwidth, and the
// band classification lands on the level the profile deserves.
func TestMeterConvergesOverThrottledProfiles(t *testing.T) {
	cases := []struct {
		profile netsim.Profile
		chunk   int
		writes  int
		minFrac float64
		want    qos.Level
	}{
		// Dialup: 1 KiB chunks keep the total pacing delay ~1s.
		{netsim.Dialup, 1 << 10, 6, 0.4, qos.Low},
		// 3G: 8 KiB chunks, ~1s total.
		{netsim.ThreeG, 8 << 10, 6, 0.4, qos.Medium},
		// LAN pacing is ~5ms per chunk, so pipe copy overhead dominates
		// the timing; the measured rate undershoots the shaped bandwidth
		// but must still land far inside the high band.
		{netsim.LAN, 64 << 10, 6, 0.1, qos.High},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.profile.Name, func(t *testing.T) {
			t.Parallel()
			server, client := net.Pipe()
			defer server.Close()
			go io.Copy(io.Discard, client) //nolint:errcheck — drain until close
			defer client.Close()
			tconn, err := netsim.Throttle(server, tc.profile.EffectiveBandwidth())
			if err != nil {
				t.Fatal(err)
			}
			m := qos.NewMeter()
			buf := make([]byte, tc.chunk)
			for i := 0; i < tc.writes; i++ {
				start := time.Now()
				n, err := tconn.Write(buf)
				if err != nil {
					t.Fatal(err)
				}
				m.Observe(n, time.Since(start))
			}
			if m.Samples() < int64(tc.writes) {
				t.Fatalf("samples = %d, want %d", m.Samples(), tc.writes)
			}
			rate, want := m.Rate(), float64(tc.profile.EffectiveBandwidth())
			// The pipe itself adds scheduling overhead on top of the
			// throttle's pacing, so the measured rate sits at or below the
			// shaped bandwidth; it must not be wildly off.
			if rate > want*1.3 || rate < want*tc.minFrac {
				t.Errorf("%s: measured %.0f B/s, link shaped to %.0f B/s", tc.profile.Name, rate, want)
			}
			if got := qos.DefaultBands().Classify(rate, qos.High); got != tc.want {
				t.Errorf("%s: classified %s at %.0f B/s, want %s", tc.profile.Name, got, rate, tc.want)
			}
		})
	}
}
