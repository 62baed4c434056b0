package cpnet

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mmconf/internal/wire"
)

// randomNetwork builds a random valid CP-network: up to maxVars variables
// with domains of 2–3 values, parents drawn from earlier variables, and
// random total orders in every CPT row.
func randomNetwork(rng *rand.Rand, maxVars int) *Network {
	n := New()
	nvars := 1 + rng.Intn(maxVars)
	for i := 0; i < nvars; i++ {
		name := "v" + itoa(i)
		dsize := 2 + rng.Intn(2)
		dom := make([]string, dsize)
		for d := range dom {
			dom[d] = name + "_" + itoa(d)
		}
		if err := n.AddVariable(name, dom); err != nil {
			panic(err)
		}
		// Choose up to 2 parents among earlier variables.
		var parents []string
		for _, j := range rng.Perm(i) {
			if len(parents) >= 2 || rng.Intn(2) == 0 {
				continue
			}
			parents = append(parents, "v"+itoa(j))
		}
		if len(parents) > 0 {
			if err := n.SetParents(name, parents); err != nil {
				panic(err)
			}
		}
		// Fill every CPT row with a random permutation.
		idx := n.index[name]
		rows := n.rowCount(idx)
		nd := n.nodes[idx]
		for k := uint64(0); k < rows; k++ {
			perm := rng.Perm(dsize)
			row := make([]uint8, dsize)
			for p, v := range perm {
				row[p] = uint8(v)
			}
			nd.cpt[k] = row
		}
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

// randomOutcome draws a uniformly random complete outcome.
func randomOutcome(rng *rand.Rand, n *Network) Outcome {
	o := make(Outcome, n.Len())
	for _, v := range n.Variables() {
		o[v.Name] = v.Domain[rng.Intn(len(v.Domain))]
	}
	return o
}

// randomEvidence pins a random subset of variables to random values.
func randomEvidence(rng *rand.Rand, n *Network) Outcome {
	ev := Outcome{}
	for _, v := range n.Variables() {
		if rng.Intn(3) == 0 {
			ev[v.Name] = v.Domain[rng.Intn(len(v.Domain))]
		}
	}
	return ev
}

// hasImprovingFlipOutside reports whether outcome o admits an improving
// flip on any variable not pinned by ev.
func hasImprovingFlipOutside(t *testing.T, n *Network, o Outcome, ev Outcome) bool {
	t.Helper()
	assign, err := n.toAssign(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range n.nodes {
		if _, pinned := ev[nd.v.Name]; pinned {
			continue
		}
		rank, err := n.prefRank(i, assign, assign[i])
		if err != nil {
			t.Fatal(err)
		}
		if rank > 0 {
			return true
		}
	}
	return false
}

func TestQuickOptimalOutcomeIsLocallyOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 8)
		opt, err := n.OptimalOutcome()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return !hasImprovingFlipOutside(t, n, opt, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompletionRespectsEvidence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 8)
		ev := randomEvidence(rng, n)
		o, err := n.OptimalCompletion(ev)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for k, v := range ev {
			if o[k] != v {
				t.Logf("seed %d: evidence %s=%s overridden to %s", seed, k, v, o[k])
				return false
			}
		}
		// Every free variable sits at its conditionally preferred value.
		return !hasImprovingFlipOutside(t, n, o, ev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOptimumIsUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 5)
		if n.OutcomeCount() > 1<<10 {
			return true
		}
		ranks, err := n.RankAll()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		opt, _ := n.OptimalOutcome()
		zero := 0
		for o, r := range ranks {
			if r == 0 {
				zero++
				if o != opt.String() {
					t.Logf("seed %d: rank-0 outcome %s != optimum %s", seed, o, opt)
					return false
				}
			}
		}
		return zero == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompletionUndominatedAmongConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 4)
		if n.OutcomeCount() > 1<<8 {
			return true
		}
		ev := randomEvidence(rng, n)
		best, err := n.OptimalCompletion(ev)
		if err != nil {
			return false
		}
		ok := true
		n.ForEachOutcome(func(o Outcome) bool {
			for k, v := range ev {
				if o[k] != v {
					return true // not a completion of ev
				}
			}
			if o.String() == best.String() {
				return true
			}
			dom, err := n.Dominates(o, best, 0)
			if errors.Is(err, ErrUndecided) {
				return true
			}
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				ok = false
				return false
			}
			if dom {
				t.Logf("seed %d: completion %v dominated by %v under evidence %v", seed, best, o, ev)
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDominanceAsymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 5)
		a := randomOutcome(rng, n)
		b := randomOutcome(rng, n)
		if a.String() == b.String() {
			return true
		}
		ab, err1 := n.Dominates(a, b, 0)
		ba, err2 := n.Dominates(b, a, 0)
		if errors.Is(err1, ErrUndecided) || errors.Is(err2, ErrUndecided) {
			return true
		}
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v %v", seed, err1, err2)
			return false
		}
		return !(ab && ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 8)
		back, err := decodeNetwork(wire.MarshalBody(n))
		if err != nil {
			t.Logf("seed %d: unmarshal: %v", seed, err)
			return false
		}
		if back.Text() != n.Text() {
			t.Logf("seed %d: binary round trip drift", seed)
			return false
		}
		parsed, err := ParseText(strings.NewReader(n.Text()))
		if err != nil {
			t.Logf("seed %d: parse: %v", seed, err)
			return false
		}
		return parsed.Text() == n.Text()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 6)
		before := n.Text()
		c := n.Clone()
		// Scramble the clone's first variable preference.
		v := c.Variables()[0]
		if len(v.Domain) >= 2 && len(c.nodes[0].parents) == 0 {
			rev := make([]string, len(v.Domain))
			for i, d := range v.Domain {
				rev[len(v.Domain)-1-i] = d
			}
			if err := c.SetUnconditional(v.Name, rev); err != nil {
				return false
			}
		}
		return n.Text() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
