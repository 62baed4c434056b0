package hmm

import (
	"fmt"
	"math"
)

// HMM is a continuous-density hidden Markov model with one diagonal
// Gaussian emission per state. Probabilities are kept in log space
// throughout, so long observation sequences cannot underflow.
type HMM struct {
	LogInit  []float64       // log initial state distribution
	LogTrans [][]float64     // log transition matrix, row = from state
	States   []*DiagGaussian // per-state emission densities
}

// NumStates returns the number of hidden states.
func (h *HMM) NumStates() int { return len(h.States) }

// validate checks structural consistency.
func (h *HMM) validate() error {
	n := len(h.States)
	if n == 0 {
		return fmt.Errorf("hmm: no states")
	}
	if len(h.LogInit) != n || len(h.LogTrans) != n {
		return fmt.Errorf("hmm: shape mismatch: %d states, %d init, %d trans rows",
			n, len(h.LogInit), len(h.LogTrans))
	}
	for i, row := range h.LogTrans {
		if len(row) != n {
			return fmt.Errorf("hmm: transition row %d has %d entries", i, len(row))
		}
	}
	for i, s := range h.States {
		if s == nil {
			return fmt.Errorf("hmm: state %d has no emission density", i)
		}
	}
	return nil
}

// NewLeftRight builds a Bakis (left-to-right) HMM of numStates states —
// the topology used for keyword models in word spotting: each state may
// stay or advance to the next. Emissions are seeded by slicing data into
// numStates contiguous chunks.
func NewLeftRight(numStates int, data [][]float64) (*HMM, error) {
	if numStates <= 0 {
		return nil, fmt.Errorf("hmm: state count %d must be positive", numStates)
	}
	if len(data) < numStates {
		return nil, fmt.Errorf("hmm: %d samples cannot seed %d states", len(data), numStates)
	}
	dim := len(data[0])
	negInf := math.Inf(-1)
	h := &HMM{
		LogInit:  make([]float64, numStates),
		LogTrans: make([][]float64, numStates),
		States:   make([]*DiagGaussian, numStates),
	}
	for i := range h.LogInit {
		h.LogInit[i] = negInf
	}
	h.LogInit[0] = 0
	for i := 0; i < numStates; i++ {
		h.LogTrans[i] = make([]float64, numStates)
		for j := range h.LogTrans[i] {
			h.LogTrans[i][j] = negInf
		}
		if i == numStates-1 {
			h.LogTrans[i][i] = 0
		} else {
			h.LogTrans[i][i] = math.Log(0.5)
			h.LogTrans[i][i+1] = math.Log(0.5)
		}
		lo := i * len(data) / numStates
		hi := (i + 1) * len(data) / numStates
		w := make([]float64, len(data))
		for t := lo; t < hi; t++ {
			w[t] = 1
		}
		if g := estimateGaussian(data, w, dim); g != nil {
			h.States[i] = g
		} else {
			g, _ := NewDiagGaussian(data[lo], ones(dim))
			h.States[i] = g
		}
	}
	return h, nil
}

// LogLikelihood returns log P(obs | model) via the forward algorithm.
func (h *HMM) LogLikelihood(obs [][]float64) (float64, error) {
	alpha, err := h.forward(obs)
	if err != nil {
		return 0, err
	}
	return logSumExp(alpha[len(obs)-1]), nil
}

// forward computes log alpha values.
func (h *HMM) forward(obs [][]float64) ([][]float64, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("hmm: empty observation sequence")
	}
	n := h.NumStates()
	alpha := make([][]float64, len(obs))
	alpha[0] = make([]float64, n)
	for i := 0; i < n; i++ {
		alpha[0][i] = h.LogInit[i] + h.States[i].LogProb(obs[0])
	}
	terms := make([]float64, n)
	for t := 1; t < len(obs); t++ {
		alpha[t] = make([]float64, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				terms[i] = alpha[t-1][i] + h.LogTrans[i][j]
			}
			alpha[t][j] = logSumExp(terms) + h.States[j].LogProb(obs[t])
		}
	}
	return alpha, nil
}

// backward computes log beta values.
func (h *HMM) backward(obs [][]float64) [][]float64 {
	n := h.NumStates()
	beta := make([][]float64, len(obs))
	beta[len(obs)-1] = make([]float64, n) // log 1 = 0
	terms := make([]float64, n)
	for t := len(obs) - 2; t >= 0; t-- {
		beta[t] = make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				terms[j] = h.LogTrans[i][j] + h.States[j].LogProb(obs[t+1]) + beta[t+1][j]
			}
			beta[t][i] = logSumExp(terms)
		}
	}
	return beta
}

// Viterbi returns the most likely state path and its log probability.
func (h *HMM) Viterbi(obs [][]float64) ([]int, float64, error) {
	if err := h.validate(); err != nil {
		return nil, 0, err
	}
	if len(obs) == 0 {
		return nil, 0, fmt.Errorf("hmm: empty observation sequence")
	}
	n := h.NumStates()
	delta := make([]float64, n)
	psi := make([][]int, len(obs))
	for i := 0; i < n; i++ {
		delta[i] = h.LogInit[i] + h.States[i].LogProb(obs[0])
	}
	next := make([]float64, n)
	for t := 1; t < len(obs); t++ {
		psi[t] = make([]int, n)
		for j := 0; j < n; j++ {
			best, arg := math.Inf(-1), 0
			for i := 0; i < n; i++ {
				if v := delta[i] + h.LogTrans[i][j]; v > best {
					best, arg = v, i
				}
			}
			next[j] = best + h.States[j].LogProb(obs[t])
			psi[t][j] = arg
		}
		delta, next = next, delta
	}
	best, arg := math.Inf(-1), 0
	for i := 0; i < n; i++ {
		if delta[i] > best {
			best, arg = delta[i], i
		}
	}
	path := make([]int, len(obs))
	path[len(obs)-1] = arg
	for t := len(obs) - 1; t > 0; t-- {
		path[t-1] = psi[t][path[t]]
	}
	return path, best, nil
}

// Train runs Baum-Welch (EM) over multiple observation sequences for at
// most iters iterations, stopping early when the total log likelihood
// improves by less than 1e-4 per frame. Transitions with zero expected
// count keep their structural -Inf, so left-right topologies survive
// training.
func (h *HMM) Train(seqs [][][]float64, iters int) error {
	if err := h.validate(); err != nil {
		return err
	}
	if len(seqs) == 0 {
		return fmt.Errorf("hmm: no training sequences")
	}
	totalFrames := 0
	for _, s := range seqs {
		if len(s) == 0 {
			return fmt.Errorf("hmm: empty training sequence")
		}
		totalFrames += len(s)
	}
	n := h.NumStates()
	dim := h.States[0].Dim()
	prev := math.Inf(-1)
	for iter := 0; iter < iters; iter++ {
		initAcc := make([]float64, n)
		transAcc := make([][]float64, n)
		for i := range transAcc {
			transAcc[i] = make([]float64, n)
		}
		// Per-state weighted data for emission re-estimation.
		gammaAll := make([][]float64, 0, totalFrames) // per frame: state weights
		dataAll := make([][]float64, 0, totalFrames)

		var ll float64
		for _, obs := range seqs {
			alpha, err := h.forward(obs)
			if err != nil {
				return err
			}
			beta := h.backward(obs)
			seqLL := logSumExp(alpha[len(obs)-1])
			ll += seqLL
			T := len(obs)
			for t := 0; t < T; t++ {
				gamma := make([]float64, n)
				for i := 0; i < n; i++ {
					gamma[i] = math.Exp(alpha[t][i] + beta[t][i] - seqLL)
				}
				gammaAll = append(gammaAll, gamma)
				dataAll = append(dataAll, obs[t])
				if t == 0 {
					for i := 0; i < n; i++ {
						initAcc[i] += gamma[i]
					}
				}
			}
			for t := 0; t < T-1; t++ {
				for i := 0; i < n; i++ {
					if math.IsInf(alpha[t][i], -1) {
						continue
					}
					for j := 0; j < n; j++ {
						lt := h.LogTrans[i][j]
						if math.IsInf(lt, -1) {
							continue
						}
						xi := math.Exp(alpha[t][i] + lt + h.States[j].LogProb(obs[t+1]) + beta[t+1][j] - seqLL)
						transAcc[i][j] += xi
					}
				}
			}
		}
		// M-step: initial distribution.
		var initTotal float64
		for _, v := range initAcc {
			initTotal += v
		}
		for i := 0; i < n; i++ {
			if initAcc[i] > 0 && initTotal > 0 {
				h.LogInit[i] = math.Log(initAcc[i] / initTotal)
			} else if !math.IsInf(h.LogInit[i], -1) {
				h.LogInit[i] = math.Log(1e-10)
			}
		}
		// Transitions.
		for i := 0; i < n; i++ {
			var rowTotal float64
			for j := 0; j < n; j++ {
				rowTotal += transAcc[i][j]
			}
			if rowTotal <= 0 {
				continue // state never left; keep old row
			}
			for j := 0; j < n; j++ {
				if math.IsInf(h.LogTrans[i][j], -1) {
					continue // structural zero
				}
				p := transAcc[i][j] / rowTotal
				if p < 1e-10 {
					p = 1e-10
				}
				h.LogTrans[i][j] = math.Log(p)
			}
		}
		// Emissions.
		w := make([]float64, len(dataAll))
		for i := 0; i < n; i++ {
			for t := range dataAll {
				w[t] = gammaAll[t][i]
			}
			if g := estimateGaussian(dataAll, w, dim); g != nil {
				h.States[i] = g
			}
		}
		if ll-prev < 1e-4*float64(totalFrames) && iter > 0 {
			break
		}
		prev = ll
	}
	return nil
}
