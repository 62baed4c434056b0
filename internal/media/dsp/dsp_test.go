package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a constant is an impulse at DC.
	y := []complex128{1, 1, 1, 1}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Errorf("DC = %v, want 4", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, y[i])
		}
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	const n = 256
	const bin = 19
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*bin*float64(i)/n), 0)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	// Energy concentrates in bins ±19.
	peak := 0
	var best float64
	for i := 0; i < n/2; i++ {
		if m := cmplx.Abs(x[i]); m > best {
			best = m
			peak = i
		}
	}
	if peak != bin {
		t.Errorf("peak at bin %d, want %d", peak, bin)
	}
}

func TestFFTRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 5, 6, 7, 100} {
		if err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(9))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := ifft(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 128
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		v := rng.NormFloat64()
		x[i] = complex(v, 0)
		timeE += v * v
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE) > 1e-9*timeE {
		t.Errorf("Parseval violated: %v vs %v", timeE, freqE)
	}
}

func TestDCTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := idct2(dct2(x))
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTOrthonormal(t *testing.T) {
	// DCT of a constant vector concentrates all energy in coefficient 0.
	x := []float64{2, 2, 2, 2}
	y := dct2(x)
	if math.Abs(y[0]-4) > 1e-12 { // sqrt(1/4)*sum = 0.5*8 = 4
		t.Errorf("DC coeff = %v", y[0])
	}
	for i := 1; i < len(y); i++ {
		if math.Abs(y[i]) > 1e-12 {
			t.Errorf("coeff %d = %v, want 0", i, y[i])
		}
	}
	if out := dct2(nil); len(out) != 0 {
		t.Error("dct2(nil) not empty")
	}
	if out := idct2(nil); len(out) != 0 {
		t.Error("idct2(nil) not empty")
	}
}

// The table-driven transforms (the DCTBasis rows, forward and transposed)
// against the definition, one cosine per term, for every length up to
// 40: the two agree to rounding.
func TestDCTMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 40; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		scale := func(k int) float64 {
			if k == 0 {
				return math.Sqrt(1 / float64(n))
			}
			return math.Sqrt(2 / float64(n))
		}
		fwd, inv := dct2(x), idct2(x)
		for k := 0; k < n; k++ {
			var want2, want3 float64 // DCT-II coefficient k, DCT-III sample k
			for i := 0; i < n; i++ {
				want2 += x[i] * scale(k) * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
				want3 += x[i] * scale(i) * math.Cos(math.Pi*float64(i)*(float64(k)+0.5)/float64(n))
			}
			if math.Abs(fwd[k]-want2) > 1e-12 || math.Abs(inv[k]-want3) > 1e-12 {
				t.Fatalf("n=%d k=%d: DCT-II %v want %v, DCT-III %v want %v", n, k, fwd[k], want2, inv[k], want3)
			}
		}
	}
}

// The extractor's cepstra are the leading DCT-II coefficients of the log
// mel energies, from the basis it built once.
func TestExtractorCepstraAreDCTPrefix(t *testing.T) {
	e, err := NewExtractor(8000, 256, 128, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	logMel := make([]float64, e.NumFilters)
	for i := range logMel {
		logMel[i] = math.Sin(float64(i)) - 3
	}
	got := make([]float64, e.NumCoeffs)
	dctInto(got, e.dct, logMel)
	n := float64(len(logMel))
	for k := range got {
		scale := math.Sqrt(2 / n)
		if k == 0 {
			scale = math.Sqrt(1 / n)
		}
		var want float64
		for i, v := range logMel {
			want += v * scale * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/n)
		}
		if math.Abs(got[k]-want) > 1e-12 {
			t.Errorf("cepstrum %d = %v, the DCT-II gives %v", k, got[k], want)
		}
	}
}

func TestFrame(t *testing.T) {
	sig := make([]float64, 100)
	frames, err := Frame(sig, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 8 { // starts 0..70
		t.Errorf("frames = %d, want 8", len(frames))
	}
	if _, err := Frame(sig, 0, 10); err == nil {
		t.Error("zero frame length accepted")
	}
	if _, err := Frame(sig, 10, 0); err == nil {
		t.Error("zero hop accepted")
	}
	// Signal shorter than a frame yields no frames.
	frames, _ = Frame(sig[:5], 30, 10)
	if len(frames) != 0 {
		t.Errorf("short signal produced %d frames", len(frames))
	}
}

func TestPreEmphasis(t *testing.T) {
	sig := []float64{1, 1, 1, 1}
	out := PreEmphasis(sig, 0.9)
	if out[0] != 1 {
		t.Errorf("out[0] = %v", out[0])
	}
	for i := 1; i < len(out); i++ {
		if math.Abs(out[i]-0.1) > 1e-12 {
			t.Errorf("out[%d] = %v, want 0.1", i, out[i])
		}
	}
	if len(PreEmphasis(nil, 0.9)) != 0 {
		t.Error("PreEmphasis(nil) not empty")
	}
}

func TestEnergyAndZCR(t *testing.T) {
	silence := make([]float64, 100)
	loud := make([]float64, 100)
	for i := range loud {
		loud[i] = math.Sin(float64(i))
	}
	if Energy(silence) >= Energy(loud) {
		t.Error("silence energy not below signal energy")
	}
	// Alternating signal has ZCR 1; constant-sign has ZCR 0.
	alt := make([]float64, 50)
	for i := range alt {
		alt[i] = 1
		if i%2 == 1 {
			alt[i] = -1
		}
	}
	if z := ZeroCrossingRate(alt); math.Abs(z-1) > 1e-12 {
		t.Errorf("alternating ZCR = %v", z)
	}
	pos := []float64{1, 2, 3, 4}
	if z := ZeroCrossingRate(pos); z != 0 {
		t.Errorf("positive ZCR = %v", z)
	}
	if ZeroCrossingRate([]float64{1}) != 0 {
		t.Error("single-sample ZCR not 0")
	}
}

func TestExtractorValidation(t *testing.T) {
	if _, err := NewExtractor(0, 256, 128, 20, 12); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := NewExtractor(8000, 0, 128, 20, 12); err == nil {
		t.Error("zero frame accepted")
	}
	if _, err := NewExtractor(8000, 256, 128, 1, 1); err == nil {
		t.Error("single filter accepted")
	}
	if _, err := NewExtractor(8000, 256, 128, 20, 25); err == nil {
		t.Error("coeffs > filters accepted")
	}
}

func TestExtractorSeparatesTones(t *testing.T) {
	e, err := NewExtractor(8000, 256, 128, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 13 {
		t.Errorf("Dim = %d", e.Dim())
	}
	mk := func(freq float64) []float64 {
		sig := make([]float64, 8000)
		for i := range sig {
			sig[i] = math.Sin(2 * math.Pi * freq * float64(i) / 8000)
		}
		return sig
	}
	lowF, err := e.Features(mk(300))
	if err != nil {
		t.Fatal(err)
	}
	highF, err := e.Features(mk(2500))
	if err != nil {
		t.Fatal(err)
	}
	if len(lowF) == 0 || len(lowF[0]) != 13 {
		t.Fatalf("feature shape: %d x %d", len(lowF), len(lowF[0]))
	}
	// Mean feature vectors of distinct tones must differ substantially.
	var dist float64
	for d := 0; d < 13; d++ {
		var lm, hm float64
		for i := range lowF {
			lm += lowF[i][d]
		}
		for i := range highF {
			hm += highF[i][d]
		}
		lm /= float64(len(lowF))
		hm /= float64(len(highF))
		dist += (lm - hm) * (lm - hm)
	}
	if math.Sqrt(dist) < 1 {
		t.Errorf("tone features not separated: distance %v", math.Sqrt(dist))
	}
}

func TestFrameTimeIndexInverse(t *testing.T) {
	e, _ := NewExtractor(8000, 256, 128, 20, 12)
	for _, i := range []int{0, 5, 50, 300} {
		sec := e.FrameTime(i)
		j := e.FrameIndex(sec)
		if j < i-1 || j > i+1 {
			t.Errorf("FrameIndex(FrameTime(%d)) = %d", i, j)
		}
	}
	if e.FrameIndex(-5) != 0 {
		t.Error("negative time not clamped")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHammingWindow(t *testing.T) {
	w := HammingWindow(64)
	if math.Abs(w[0]-0.08) > 1e-9 || math.Abs(w[63]-0.08) > 1e-9 {
		t.Errorf("edges = %v, %v", w[0], w[63])
	}
	// Symmetric, peak at the middle.
	for i := 0; i < 32; i++ {
		if math.Abs(w[i]-w[63-i]) > 1e-12 {
			t.Errorf("asymmetry at %d", i)
		}
	}
	if w1 := HammingWindow(1); w1[0] != 1 {
		t.Errorf("HammingWindow(1) = %v", w1)
	}
}

// ifft inverts FFT in place: the conjugate of the transform of the
// conjugate, scaled by 1/n.
func ifft(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	inv := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
}

// dct2 is the orthonormal DCT-II of x against DCTBasis.
func dct2(x []float64) []float64 {
	out := make([]float64, len(x))
	dctInto(out, DCTBasis(len(x)), x)
	return out
}

// idct2 inverts dct2 (the orthonormal DCT-III): the DCTBasis rows summed
// with the weights in x.
func idct2(x []float64) []float64 {
	n := len(x)
	basis := DCTBasis(n)
	out := make([]float64, n)
	for k, c := range x {
		for i, b := range basis[k*n : (k+1)*n] {
			out[i] += c * b
		}
	}
	return out
}
