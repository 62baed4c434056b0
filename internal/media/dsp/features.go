package dsp

import (
	"fmt"
	"math"
)

// Frame slices signal into overlapping frames of size frameLen advancing
// by hop samples. The tail shorter than frameLen is dropped. Frames alias
// the input; callers must not mutate them.
func Frame(signal []float64, frameLen, hop int) ([][]float64, error) {
	if frameLen <= 0 || hop <= 0 {
		return nil, fmt.Errorf("dsp: frame length %d and hop %d must be positive", frameLen, hop)
	}
	var frames [][]float64
	for start := 0; start+frameLen <= len(signal); start += hop {
		frames = append(frames, signal[start:start+frameLen])
	}
	return frames, nil
}

// PreEmphasis applies the standard speech pre-emphasis filter
// y[n] = x[n] - a*x[n-1] and returns a new slice.
func PreEmphasis(signal []float64, a float64) []float64 {
	out := make([]float64, len(signal))
	if len(signal) == 0 {
		return out
	}
	out[0] = signal[0]
	for i := 1; i < len(signal); i++ {
		out[i] = signal[i] - a*signal[i-1]
	}
	return out
}

// Energy returns the log frame energy, floored to avoid -Inf on silence.
func Energy(frame []float64) float64 {
	var e float64
	for _, v := range frame {
		e += v * v
	}
	return math.Log(e + 1e-10)
}

// ZeroCrossingRate returns the fraction of adjacent sample pairs whose
// signs differ — high for noise and fricatives, low for voiced speech.
func ZeroCrossingRate(frame []float64) float64 {
	if len(frame) < 2 {
		return 0
	}
	crossings := 0
	for i := 1; i < len(frame); i++ {
		if (frame[i-1] >= 0) != (frame[i] >= 0) {
			crossings++
		}
	}
	return float64(crossings) / float64(len(frame)-1)
}

// SpectralCentroid returns the power-weighted mean frequency of spec,
// whose bins span [0, sampleRate/2].
func SpectralCentroid(spec []float64, sampleRate float64) float64 {
	var num, den float64
	for i, p := range spec {
		f := float64(i) * sampleRate / float64(2*(len(spec)-1))
		num += f * p
		den += p
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Extractor computes MFCC-style feature vectors, the observation sequence
// the CD-HMMs of the voice module are trained on.
type Extractor struct {
	// SampleRate of the input signal in Hz.
	SampleRate float64
	// FrameLen and Hop are in samples.
	FrameLen, Hop int
	// NumFilters is the mel filterbank size.
	NumFilters int
	// NumCoeffs is how many cepstral coefficients to keep (excluding the
	// appended log-energy).
	NumCoeffs int
	// PreEmph is the pre-emphasis coefficient (0 disables).
	PreEmph float64

	window  []float64
	filters [][]float64 // mel triangular filters over power-spectrum bins
	dct     []float64   // DCT-II basis over the NumFilters log energies
}

// NewExtractor returns an extractor with validated configuration.
func NewExtractor(sampleRate float64, frameLen, hop, numFilters, numCoeffs int) (*Extractor, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: sample rate %v must be positive", sampleRate)
	}
	if frameLen <= 0 || hop <= 0 {
		return nil, fmt.Errorf("dsp: frame length %d and hop %d must be positive", frameLen, hop)
	}
	if numFilters < 2 || numCoeffs < 1 || numCoeffs > numFilters {
		return nil, fmt.Errorf("dsp: need 2 ≤ filters and 1 ≤ coeffs ≤ filters, got %d/%d", numFilters, numCoeffs)
	}
	e := &Extractor{
		SampleRate: sampleRate,
		FrameLen:   frameLen,
		Hop:        hop,
		NumFilters: numFilters,
		NumCoeffs:  numCoeffs,
		PreEmph:    0.97,
		window:     HammingWindow(frameLen),
		dct:        DCTBasis(numFilters),
	}
	e.filters = melFilterbank(numFilters, NextPow2(frameLen)/2+1, sampleRate)
	return e, nil
}

// Dim returns the dimensionality of produced feature vectors.
func (e *Extractor) Dim() int { return e.NumCoeffs + 1 }

// hzToMel and melToHz implement the usual mel scale.
func hzToMel(f float64) float64 { return 2595 * math.Log10(1+f/700) }
func melToHz(m float64) float64 { return 700 * (math.Pow(10, m/2595) - 1) }

// melFilterbank builds triangular filters over power-spectrum bins.
func melFilterbank(numFilters, bins int, sampleRate float64) [][]float64 {
	low := hzToMel(0)
	high := hzToMel(sampleRate / 2)
	points := make([]float64, numFilters+2)
	for i := range points {
		mel := low + (high-low)*float64(i)/float64(numFilters+1)
		hz := melToHz(mel)
		points[i] = hz / (sampleRate / 2) * float64(bins-1)
	}
	filters := make([][]float64, numFilters)
	for m := 0; m < numFilters; m++ {
		f := make([]float64, bins)
		left, center, right := points[m], points[m+1], points[m+2]
		for b := 0; b < bins; b++ {
			x := float64(b)
			switch {
			case x > left && x <= center && center > left:
				f[b] = (x - left) / (center - left)
			case x > center && x < right && right > center:
				f[b] = (right - x) / (right - center)
			}
		}
		filters[m] = f
	}
	return filters
}

// Features converts a waveform to a sequence of feature vectors: NumCoeffs
// mel-cepstral coefficients plus log energy per frame.
func (e *Extractor) Features(signal []float64) ([][]float64, error) {
	if e.PreEmph > 0 {
		signal = PreEmphasis(signal, e.PreEmph)
	}
	frames, err := Frame(signal, e.FrameLen, e.Hop)
	if err != nil {
		return nil, err
	}
	feats := make([][]float64, len(frames))
	windowed := make([]float64, e.FrameLen)
	for i, frame := range frames {
		for j := range frame {
			windowed[j] = frame[j] * e.window[j]
		}
		spec, err := PowerSpectrum(windowed)
		if err != nil {
			return nil, err
		}
		logMel := make([]float64, e.NumFilters)
		for m, filt := range e.filters {
			var sum float64
			for b, w := range filt {
				if w != 0 {
					sum += w * spec[b]
				}
			}
			logMel[m] = math.Log(sum + 1e-10)
		}
		vec := make([]float64, e.NumCoeffs+1)
		dctInto(vec[:e.NumCoeffs], e.dct, logMel)
		vec[e.NumCoeffs] = Energy(frame)
		feats[i] = vec
	}
	return feats, nil
}

// FrameTime returns the center time in seconds of frame index i.
func (e *Extractor) FrameTime(i int) float64 {
	return (float64(i)*float64(e.Hop) + float64(e.FrameLen)/2) / e.SampleRate
}

// FrameIndex returns the frame whose span contains the given second.
func (e *Extractor) FrameIndex(sec float64) int {
	i := int((sec*e.SampleRate - float64(e.FrameLen)/2) / float64(e.Hop))
	if i < 0 {
		return 0
	}
	return i
}
