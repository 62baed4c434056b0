// Package dsp provides the signal-processing primitives the voice module
// of the conferencing system is built on: a radix-2 FFT, frame slicing
// with windowing, and MFCC-style feature extraction. The paper's audio
// browsing (automatic segmentation, word spotting, speaker spotting; §3.2)
// consumes per-frame feature vectors; this package produces them from raw
// waveforms.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x, whose length must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// PowerSpectrum returns |FFT(frame)|^2 for the first n/2+1 bins of a real
// frame zero-padded to the next power of two ≥ len(frame).
func PowerSpectrum(frame []float64) ([]float64, error) {
	n := NextPow2(len(frame))
	buf := make([]complex128, n)
	for i, v := range frame {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	out := make([]float64, n/2+1)
	for i := range out {
		re, im := real(buf[i]), imag(buf[i])
		out[i] = re*re + im*im
	}
	return out, nil
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HammingWindow returns a Hamming window of length n.
func HammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// dctRow fills row with DCT-II basis vector k of length n = len(row):
// row[i] = s_k·cos(π·k·(i+½)/n), s_0 = √(1/n), s_k = √(2/n). Every
// transcendental call of a DCT is in here; the transform below is
// multiply-adds against the rows.
func dctRow(row []float64, k int) {
	n := float64(len(row))
	scale := math.Sqrt(2 / n)
	if k == 0 {
		scale = math.Sqrt(1 / n)
	}
	for i := range row {
		row[i] = scale * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/n)
	}
}

// DCTBasis returns the n×n orthonormal DCT-II matrix, row k holding
// basis vector k: the one table the cepstra here and the compression
// module's local-cosine blocks are both computed against.
func DCTBasis(n int) []float64 {
	b := make([]float64, n*n)
	for k := 0; k < n; k++ {
		dctRow(b[k*n:(k+1)*n], k)
	}
	return b
}

// dctInto writes the first len(out) DCT-II coefficients of x against
// basis, the DCTBasis of len(x).
func dctInto(out, basis, x []float64) {
	n := len(x)
	for k := range out {
		var sum float64
		for i, b := range basis[k*n : (k+1)*n] {
			sum += b * x[i]
		}
		out[k] = sum
	}
}
