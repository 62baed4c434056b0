// Package hmm implements Continuous-Density Hidden Markov Models — the
// main tool the paper's voice-processing module is built on (§3.2: "The
// main tool by means of which the above algorithms was implemented is the
// Continuous Density Hidden Markov Model (CD-HMM) ... used both for
// training and for matching purposes"). It provides diagonal-covariance
// Gaussians, Gaussian mixture models trained by EM (for text-independent
// speaker models), and HMMs with Gaussian emissions trained by Baum-Welch
// and decoded by Viterbi (for audio segmentation and word spotting).
package hmm

import (
	"fmt"
	"math"
	"math/rand"
)

// varFloor keeps variances away from zero so degenerate training data
// cannot produce infinite densities.
const varFloor = 1e-4

// DiagGaussian is a multivariate Gaussian with diagonal covariance.
type DiagGaussian struct {
	Mean []float64
	Var  []float64

	logNorm float64 // cached -0.5*(d*log(2π) + Σ log var)
}

// NewDiagGaussian builds a Gaussian, flooring variances and caching the
// normalization constant.
func NewDiagGaussian(mean, variance []float64) (*DiagGaussian, error) {
	if len(mean) == 0 || len(mean) != len(variance) {
		return nil, fmt.Errorf("hmm: gaussian needs matching non-empty mean/var, got %d/%d", len(mean), len(variance))
	}
	g := &DiagGaussian{
		Mean: append([]float64(nil), mean...),
		Var:  append([]float64(nil), variance...),
	}
	g.refresh()
	return g, nil
}

// refresh floors variances and recomputes the cached normalizer.
func (g *DiagGaussian) refresh() {
	sum := float64(len(g.Mean)) * math.Log(2*math.Pi)
	for i, v := range g.Var {
		if v < varFloor {
			g.Var[i] = varFloor
			v = varFloor
		}
		sum += math.Log(v)
	}
	g.logNorm = -0.5 * sum
}

// Dim returns the dimensionality.
func (g *DiagGaussian) Dim() int { return len(g.Mean) }

// LogProb returns the log density of x.
func (g *DiagGaussian) LogProb(x []float64) float64 {
	var quad float64
	for i, m := range g.Mean {
		d := x[i] - m
		quad += d * d / g.Var[i]
	}
	return g.logNorm - 0.5*quad
}

// estimateGaussian fits a Gaussian to data weighted by w (responsibilities).
// Returns nil if the total weight is too small to estimate anything.
func estimateGaussian(data [][]float64, w []float64, dim int) *DiagGaussian {
	var total float64
	for _, wi := range w {
		total += wi
	}
	if total < 1e-8 {
		return nil
	}
	mean := make([]float64, dim)
	for t, x := range data {
		for i := 0; i < dim; i++ {
			mean[i] += w[t] * x[i]
		}
	}
	for i := range mean {
		mean[i] /= total
	}
	variance := make([]float64, dim)
	for t, x := range data {
		for i := 0; i < dim; i++ {
			d := x[i] - mean[i]
			variance[i] += w[t] * d * d
		}
	}
	for i := range variance {
		variance[i] /= total
	}
	g := &DiagGaussian{Mean: mean, Var: variance}
	g.refresh()
	return g
}

// FitGaussian fits a single Gaussian to unweighted data.
func FitGaussian(data [][]float64) (*DiagGaussian, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("hmm: no data to fit")
	}
	w := make([]float64, len(data))
	for i := range w {
		w[i] = 1
	}
	g := estimateGaussian(data, w, len(data[0]))
	if g == nil {
		return nil, fmt.Errorf("hmm: degenerate data")
	}
	return g, nil
}

// logSumExp returns log(Σ exp(xs)) stably.
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// kMeans clusters data into k centroids (Lloyd's algorithm with random
// initialization from rng), returning centroids and assignments. Used to
// seed GMM and HMM emission parameters.
func kMeans(data [][]float64, k int, rng *rand.Rand, iters int) ([][]float64, []int) {
	dim := len(data[0])
	// Farthest-point initialization: a random first centroid, then greedily
	// the point farthest from all chosen centroids. Far more robust on
	// well-separated clusters than uniform random seeding.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), data[rng.Intn(len(data))]...))
	minDist := make([]float64, len(data))
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(centroids) < k {
		last := centroids[len(centroids)-1]
		far, farD := 0, -1.0
		for t, x := range data {
			var d float64
			for i := 0; i < dim; i++ {
				diff := x[i] - last[i]
				d += diff * diff
			}
			if d < minDist[t] {
				minDist[t] = d
			}
			if minDist[t] > farD {
				far, farD = t, minDist[t]
			}
		}
		centroids = append(centroids, append([]float64(nil), data[far]...))
	}
	assign := make([]int, len(data))
	for iter := 0; iter < iters; iter++ {
		changed := false
		for t, x := range data {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				var d float64
				for i := 0; i < dim; i++ {
					diff := x[i] - cen[i]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[t] != best {
				assign[t] = best
				changed = true
			}
		}
		counts := make([]float64, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for t, x := range data {
			c := assign[t]
			counts[c]++
			for i := 0; i < dim; i++ {
				sums[c][i] += x[i]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centroids[c] = append([]float64(nil), data[rng.Intn(len(data))]...)
				continue
			}
			for i := 0; i < dim; i++ {
				centroids[c][i] = sums[c][i] / counts[c]
			}
		}
		if !changed {
			break
		}
	}
	return centroids, assign
}
