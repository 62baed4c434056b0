package qos

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestMeterConvergesToSteadyRate(t *testing.T) {
	m := NewMeter()
	// 200 writes of 5 KB each taking 50 ms: a steady 100 KB/s link.
	for i := 0; i < 200; i++ {
		m.Observe(5000, 50*time.Millisecond)
	}
	rate := m.Rate()
	if math.Abs(rate-100e3) > 100e3*0.01 {
		t.Fatalf("rate = %.0f B/s, want ~100000", rate)
	}
	if m.Samples() != 200 {
		t.Fatalf("samples = %d, want 200", m.Samples())
	}
}

func TestMeterTracksLinkChange(t *testing.T) {
	m := NewMeter()
	for i := 0; i < 100; i++ {
		m.Observe(100_000, 100*time.Millisecond) // 1 MB/s
	}
	// Link degrades to 10 KB/s; after a few time constants of evidence
	// (10 s against DefaultTau's 2) the estimate must follow.
	for i := 0; i < 100; i++ {
		m.Observe(1000, 100*time.Millisecond)
	}
	rate := m.Rate()
	if rate > 50e3 {
		t.Fatalf("rate = %.0f B/s, still stuck near the old 1 MB/s", rate)
	}
}

func TestMeterShortBlipHasSmallWeight(t *testing.T) {
	m := NewMeter()
	for i := 0; i < 100; i++ {
		m.Observe(1000, 100*time.Millisecond) // steady 10 KB/s
	}
	before := m.Rate()
	// One microsecond-scale burst that happened to leave the socket
	// buffer instantly looks like 1 GB/s; it must barely move the EWMA.
	m.Observe(1000, time.Microsecond)
	after := m.Rate()
	if after > before*2 {
		t.Fatalf("one fast blip moved the estimate %.0f -> %.0f B/s", before, after)
	}
}

func TestMeterIgnoresDegenerateSamples(t *testing.T) {
	m := NewMeter()
	m.Observe(0, time.Second)
	m.Observe(100, 0)
	m.Observe(-5, time.Second)
	if m.Samples() != 0 || m.Rate() != 0 {
		t.Fatalf("degenerate samples counted: n=%d rate=%g", m.Samples(), m.Rate())
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(1000, time.Millisecond)
				_ = m.Rate()
			}
		}()
	}
	wg.Wait()
	if m.Samples() != 8000 {
		t.Fatalf("samples = %d, want 8000", m.Samples())
	}
}

func TestBandsClassifyPlain(t *testing.T) {
	b := DefaultBands()
	cases := []struct {
		rate float64
		from Level
		want Level
	}{
		{7e3, High, Low},     // dialup measured from a fresh (optimistic) start
		{48e3, High, Medium}, // 3G
		{48e3, Low, Medium},  // 3G recovering from low
		{12e6, Low, High},    // LAN: multi-step upgrade in one classify
		{12e6, High, High},
		{7e3, Low, Low},
	}
	for _, c := range cases {
		if got := b.Classify(c.rate, c.from); got != c.want {
			t.Errorf("Classify(%.0f, %s) = %s, want %s", c.rate, c.from, got, c.want)
		}
	}
}

// A rate sitting exactly on a band edge, wobbling a few percent either
// way, must not flap the level: the hysteresis guard is wider than the
// wobble.
func TestBandsHysteresisNoFlapAtEdge(t *testing.T) {
	b := Bands{LowMedium: 16e3, MediumHigh: 1e6, Hysteresis: 0.25}
	level := Medium
	changes := 0
	for i := 0; i < 1000; i++ {
		wobble := 1 + 0.10*math.Sin(float64(i)) // ±10% around the edge
		next := b.Classify(b.LowMedium*wobble, level)
		if next != level {
			changes++
			level = next
		}
	}
	if changes != 0 {
		t.Fatalf("level changed %d times while wobbling ±10%% around an edge with 25%% hysteresis", changes)
	}
	// Sanity: a decisive move beyond the guard band does switch.
	if got := b.Classify(b.LowMedium*0.5, Medium); got != Low {
		t.Fatalf("decisive drop classified as %s, want low", got)
	}
	if got := b.Classify(b.LowMedium*2, Low); got != Medium {
		t.Fatalf("decisive rise classified as %s, want medium", got)
	}
}

func TestControllerHoldsUntilConfident(t *testing.T) {
	b := DefaultBands()
	// Fewer than minSamples observations: the dialup-looking rate must
	// not move the level yet.
	if level := b.Step(High, 7e3, minSamples-1, 0); level != High {
		t.Fatalf("uninformed step moved the level to %s", level)
	}
	if level := b.Step(High, 7e3, minSamples, 0); level != Low {
		t.Fatalf("confident dialup rate gave %s, want low", level)
	}
}

func TestControllerPressureDemotes(t *testing.T) {
	b := DefaultBands()
	// Writes look LAN-fast (they drained into a deep kernel buffer), but
	// the push budget is nearly full: the client is not consuming.
	level := b.Step(High, 12e6, 100, 0.9)
	if level != Medium {
		t.Fatalf("pressure demotion gave %s, want medium", level)
	}
	// Sustained pressure keeps demoting, but never below Low.
	level = b.Step(level, 12e6, 100, 0.9)
	if level = b.Step(level, 12e6, 100, 0.9); level != Low {
		t.Fatalf("sustained pressure gave %s, want low", level)
	}
}

// stepDecisions is what the stateful controller Step replaced returned
// (L, M, H) over stepInputs' stream, starting at High: the step must fold
// the same inputs into the same levels.
const stepDecisions = "HHHHMLLMMMLLLLLLLLLLLLLLLLLLLLLLLLHMLLLMMMMMLLLLLLLLLLLLLLLLMLLLHHMMMLLLLLLLLLLL" +
	"LLLMMMLLLLLLLMLLLLMLMLLLLLLLLLLMLLMMMLLLLLLMHHHHHHHMLMMMLHMMLLLMLLLLLLLLLLLLLLLL" +
	"MMLLLMLMLLMMHMLLLLLLLLLLLMMMMMMLLMLLLLLLLLLLLLMMLLLLLMLLMMMMLLLLLLLLLLHMLLLLLLMM" +
	"MMMMMLLLLLLLMMMLLLLMMMMHHHMMMLMMMMLMMLLMLLMMMLLLLLLMMMLLLLLLHHMMLLLLMMMMMMMMMMLL" +
	"MMLLMMMMMMMMMMMMMMMMMLMMMMLLLLLMLMMMLLLLLLLLLLLLLLLMLLLMHMMMLLLLLLLLMLMMMMMMMMMH"

// stepInputs draws the table's input stream: rates on and either side of
// both hysteresis-widened edges (12k/20k and 750k/1.25M bytes/s), sample
// counts 0-6 around the gate of 4, and pressures around and exactly on
// the 0.75 demotion threshold.
func stepInputs(n int) (rates []float64, samples []int64, pressures []float64) {
	rateSet := []float64{0, 7e3, 11999, 12e3, 12001, 16e3, 19999, 20e3, 20001, 48e3,
		749999, 750e3, 750001, 1e6, 1249999, 1.25e6, 1250001, 12e6}
	pressureSet := []float64{0, 0, 0, 0.25, 0.5, 0.74, 0.75, 0.7500001, 0.76, 1}
	rng := rand.New(rand.NewPCG(50, 1))
	for i := 0; i < n; i++ {
		rates = append(rates, rateSet[rng.IntN(len(rateSet))])
		samples = append(samples, int64(rng.IntN(7)))
		pressures = append(pressures, pressureSet[rng.IntN(len(pressureSet))])
	}
	return rates, samples, pressures
}

func TestStepMatchesRecordedDecisions(t *testing.T) {
	b := DefaultBands()
	rates, samples, pressures := stepInputs(len(stepDecisions))
	level := High
	for i := range stepDecisions {
		prev := level
		level = b.Step(level, rates[i], samples[i], pressures[i])
		if got := "LMH"[level]; got != stepDecisions[i] {
			t.Fatalf("step %d: %s at rate %g, %d samples, pressure %g gave %c, want %c",
				i, prev, rates[i], samples[i], pressures[i], got, stepDecisions[i])
		}
	}
}

func TestLevelNames(t *testing.T) {
	for l, want := range []string{LowName, MediumName, HighName} {
		if got := Level(l).String(); got != want {
			t.Errorf("Level(%d) = %q, want %q", l, got, want)
		}
	}
	if s := Level(9).String(); s != "Level(9)" {
		t.Fatalf("stringer fallback = %q", s)
	}
}
