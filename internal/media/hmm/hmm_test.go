package hmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiagGaussianLogProb(t *testing.T) {
	g, err := NewDiagGaussian([]float64{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Standard normal at 0: log(1/sqrt(2π)).
	want := -0.5 * math.Log(2*math.Pi)
	if got := g.LogProb([]float64{0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("logprob at mean = %v, want %v", got, want)
	}
	// Symmetric and decreasing away from the mean.
	if g.LogProb([]float64{1}) != g.LogProb([]float64{-1}) {
		t.Error("not symmetric")
	}
	if g.LogProb([]float64{2}) >= g.LogProb([]float64{1}) {
		t.Error("not decreasing")
	}
	if g.Dim() != 1 {
		t.Errorf("Dim = %d", g.Dim())
	}
}

func TestDiagGaussianValidation(t *testing.T) {
	if _, err := NewDiagGaussian(nil, nil); err == nil {
		t.Error("empty gaussian accepted")
	}
	if _, err := NewDiagGaussian([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("mismatched dims accepted")
	}
	// Zero variance gets floored, not rejected.
	g, err := NewDiagGaussian([]float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if g.Var[0] < varFloor {
		t.Errorf("variance not floored: %v", g.Var[0])
	}
	if math.IsInf(g.LogProb([]float64{0}), 1) {
		t.Error("floored gaussian produced infinite density")
	}
}

func TestFitGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 5000)
	for i := range data {
		data[i] = []float64{3 + 2*rng.NormFloat64(), -1 + 0.5*rng.NormFloat64()}
	}
	g, err := FitGaussian(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mean[0]-3) > 0.1 || math.Abs(g.Mean[1]+1) > 0.1 {
		t.Errorf("mean = %v", g.Mean)
	}
	if math.Abs(g.Var[0]-4) > 0.3 || math.Abs(g.Var[1]-0.25) > 0.05 {
		t.Errorf("var = %v", g.Var)
	}
	if _, err := FitGaussian(nil); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestLogSumExpAndLogAdd(t *testing.T) {
	if v := logSumExp([]float64{math.Log(1), math.Log(3)}); math.Abs(v-math.Log(4)) > 1e-12 {
		t.Errorf("logSumExp = %v", v)
	}
	negInf := math.Inf(-1)
	if v := logSumExp([]float64{negInf, negInf}); !math.IsInf(v, -1) {
		t.Errorf("logSumExp(-inf) = %v", v)
	}
	if v := logSumExp([]float64{negInf, math.Log(2)}); math.Abs(v-math.Log(2)) > 1e-12 {
		t.Errorf("logSumExp(-inf, log2) = %v", v)
	}
	if v := logSumExp([]float64{math.Log(2), negInf}); math.Abs(v-math.Log(2)) > 1e-12 {
		t.Errorf("logSumExp(log2, -inf) = %v", v)
	}
	// Huge magnitudes must not overflow.
	if v := logSumExp([]float64{1000, 1000}); math.Abs(v-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("logSumExp(1000, 1000) = %v", v)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 500 || math.Abs(b) > 500 {
			return true
		}
		want := math.Log(math.Exp(a) + math.Exp(b))
		return math.Abs(logSumExp([]float64{a, b})-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGMMRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var data [][]float64
	for i := 0; i < 1500; i++ {
		if i%3 == 0 {
			data = append(data, []float64{5 + 0.5*rng.NormFloat64(), 5 + 0.5*rng.NormFloat64()})
		} else if i%3 == 1 {
			data = append(data, []float64{-5 + 0.5*rng.NormFloat64(), 0 + 0.5*rng.NormFloat64()})
		} else {
			data = append(data, []float64{0 + 0.5*rng.NormFloat64(), -5 + 0.5*rng.NormFloat64()})
		}
	}
	g, err := TrainGMM(data, 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Each true center must be near some learned component mean.
	centers := [][]float64{{5, 5}, {-5, 0}, {0, -5}}
	for _, c := range centers {
		best := math.Inf(1)
		for _, comp := range g.Comps {
			d := math.Hypot(comp.Mean[0]-c[0], comp.Mean[1]-c[1])
			if d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("no component near %v (closest %.2f away)", c, best)
		}
	}
	// Weights roughly uniform.
	for i, w := range g.Weights {
		if w < 0.2 || w > 0.5 {
			t.Errorf("weight[%d] = %v", i, w)
		}
	}
	// Points near a center score higher than far points.
	if g.LogProb([]float64{5, 5}) <= g.LogProb([]float64{20, 20}) {
		t.Error("density not concentrated on clusters")
	}
}

func TestGMMSeparatesSources(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(mx, my float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{mx + rng.NormFloat64(), my + rng.NormFloat64()}
		}
		return out
	}
	a := mk(3, 3, 400)
	b := mk(-3, -3, 400)
	ga, err := TrainGMM(a, 2, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := TrainGMM(b, 2, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	testA := mk(3, 3, 50)
	testB := mk(-3, -3, 50)
	if ga.MeanLogProb(testA) <= gb.MeanLogProb(testA) {
		t.Error("model A does not win on A's data")
	}
	if gb.MeanLogProb(testB) <= ga.MeanLogProb(testB) {
		t.Error("model B does not win on B's data")
	}
	if !math.IsInf(ga.MeanLogProb(nil), -1) {
		t.Error("empty segment score not -inf")
	}
}

func TestTrainGMMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainGMM(nil, 2, 10, rng); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := TrainGMM([][]float64{{1}}, 0, 10, rng); err == nil {
		t.Error("zero components accepted")
	}
	if _, err := TrainGMM([][]float64{{1}}, 2, 10, rng); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := TrainGMM([][]float64{{1}, {1, 2}}, 1, 10, rng); err == nil {
		t.Error("ragged data accepted")
	}
}

// twoStateHMM builds a hand-crafted model: state 0 emits around -5,
// state 1 emits around +5, sticky transitions.
func twoStateHMM(t *testing.T) *HMM {
	t.Helper()
	g0, _ := NewDiagGaussian([]float64{-5}, []float64{1})
	g1, _ := NewDiagGaussian([]float64{5}, []float64{1})
	stay := math.Log(0.9)
	move := math.Log(0.1)
	return &HMM{
		LogInit:  []float64{math.Log(0.5), math.Log(0.5)},
		LogTrans: [][]float64{{stay, move}, {move, stay}},
		States:   []*DiagGaussian{g0, g1},
	}
}

func TestViterbiDecodesSwitches(t *testing.T) {
	h := twoStateHMM(t)
	rng := rand.New(rand.NewSource(3))
	var obs [][]float64
	var want []int
	for seg := 0; seg < 4; seg++ {
		state := seg % 2
		mean := -5.0
		if state == 1 {
			mean = 5.0
		}
		for i := 0; i < 25; i++ {
			obs = append(obs, []float64{mean + rng.NormFloat64()})
			want = append(want, state)
		}
	}
	path, lp, err := h.Viterbi(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(lp, -1) {
		t.Fatal("viterbi log prob is -inf")
	}
	errs := 0
	for i := range path {
		if path[i] != want[i] {
			errs++
		}
	}
	if errs > 2 { // a frame or two of slack at boundaries
		t.Errorf("viterbi made %d/%d state errors", errs, len(path))
	}
}

func TestForwardLikelihoodPrefersMatchingData(t *testing.T) {
	h := twoStateHMM(t)
	rng := rand.New(rand.NewSource(4))
	matching := make([][]float64, 50)
	for i := range matching {
		mean := -5.0
		if i >= 25 {
			mean = 5.0
		}
		matching[i] = []float64{mean + rng.NormFloat64()}
	}
	offModel := make([][]float64, 50)
	for i := range offModel {
		offModel[i] = []float64{50 + rng.NormFloat64()}
	}
	llGood, err := h.LogLikelihood(matching)
	if err != nil {
		t.Fatal(err)
	}
	llBad, err := h.LogLikelihood(offModel)
	if err != nil {
		t.Fatal(err)
	}
	if llGood <= llBad {
		t.Errorf("likelihoods not ordered: good=%v bad=%v", llGood, llBad)
	}
}

func TestForwardMatchesDirectComputation(t *testing.T) {
	// Single state: forward likelihood equals the sum of frame log probs.
	g, _ := NewDiagGaussian([]float64{0}, []float64{1})
	h := &HMM{LogInit: []float64{0}, LogTrans: [][]float64{{0}}, States: []*DiagGaussian{g}}
	obs := [][]float64{{0.5}, {-0.3}, {1.2}}
	var want float64
	for _, o := range obs {
		want += g.LogProb(o)
	}
	got, err := h.LogLikelihood(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("forward = %v, want %v", got, want)
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Data from a genuine 2-regime process.
	var seqs [][][]float64
	for s := 0; s < 5; s++ {
		var seq [][]float64
		for seg := 0; seg < 4; seg++ {
			mean := -3.0
			if seg%2 == 1 {
				mean = 3.0
			}
			for i := 0; i < 20; i++ {
				seq = append(seq, []float64{mean + rng.NormFloat64()})
			}
		}
		seqs = append(seqs, seq)
	}
	// A fully connected start: uniform initial and transition
	// probabilities, emissions near the middle of the data.
	half := math.Log(0.5)
	h := &HMM{
		LogInit:  []float64{half, half},
		LogTrans: [][]float64{{half, half}, {half, half}},
	}
	for _, mean := range []float64{-1, 1} {
		g, err := NewDiagGaussian([]float64{mean}, []float64{4})
		if err != nil {
			t.Fatal(err)
		}
		h.States = append(h.States, g)
	}
	before := 0.0
	for _, s := range seqs {
		ll, _ := h.LogLikelihood(s)
		before += ll
	}
	if err := h.Train(seqs, 20); err != nil {
		t.Fatalf("Train: %v", err)
	}
	after := 0.0
	for _, s := range seqs {
		ll, _ := h.LogLikelihood(s)
		after += ll
	}
	if after < before-1e-6 {
		t.Errorf("Baum-Welch decreased likelihood: %v -> %v", before, after)
	}
	// The learned emission means must land near ±3.
	m0, m1 := h.States[0].Mean[0], h.States[1].Mean[0]
	if m0 > m1 {
		m0, m1 = m1, m0
	}
	if math.Abs(m0+3) > 0.5 || math.Abs(m1-3) > 0.5 {
		t.Errorf("learned means = %v, %v; want ±3", m0, m1)
	}
}

func TestLeftRightTopologySurvivesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// A "word": three phases with distinct means.
	mkWord := func() [][]float64 {
		var seq [][]float64
		for _, mean := range []float64{-4, 0, 4} {
			for i := 0; i < 10; i++ {
				seq = append(seq, []float64{mean + 0.3*rng.NormFloat64()})
			}
		}
		return seq
	}
	var seqs [][][]float64
	for i := 0; i < 10; i++ {
		seqs = append(seqs, mkWord())
	}
	h, err := NewLeftRight(3, seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Train(seqs, 15); err != nil {
		t.Fatal(err)
	}
	// Backward transitions must remain impossible.
	for i := 0; i < 3; i++ {
		for j := 0; j < i; j++ {
			if !math.IsInf(h.LogTrans[i][j], -1) {
				t.Errorf("backward transition %d->%d got probability %v", i, j, math.Exp(h.LogTrans[i][j]))
			}
		}
	}
	// Decoding a word visits the states in order.
	path, _, err := h.Viterbi(mkWord())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(path); i++ {
		if path[i] < path[i-1] {
			t.Fatalf("path went backward at %d: %v", i, path)
		}
	}
	if path[0] != 0 || path[len(path)-1] != 2 {
		t.Errorf("path does not traverse the model: start=%d end=%d", path[0], path[len(path)-1])
	}
}

func TestHMMValidation(t *testing.T) {
	g, _ := NewDiagGaussian([]float64{0}, []float64{1})
	bad := &HMM{LogInit: []float64{0, 0}, LogTrans: [][]float64{{0}}, States: []*DiagGaussian{g}}
	if _, err := bad.LogLikelihood([][]float64{{1}}); err == nil {
		t.Error("shape mismatch accepted")
	}
	empty := &HMM{}
	if _, _, err := empty.Viterbi([][]float64{{1}}); err == nil {
		t.Error("empty model accepted")
	}
	good := twoStateHMM(t)
	if _, err := good.LogLikelihood(nil); err == nil {
		t.Error("empty observations accepted")
	}
	if _, _, err := good.Viterbi(nil); err == nil {
		t.Error("empty observations accepted by viterbi")
	}
	if err := good.Train(nil, 5); err == nil {
		t.Error("empty training set accepted")
	}
	if err := good.Train([][][]float64{{}}, 5); err == nil {
		t.Error("empty training sequence accepted")
	}
	if _, err := NewLeftRight(0, [][]float64{{1}}); err == nil {
		t.Error("zero states accepted by left-right")
	}
}
