package prefetch

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/workload"
)

// referenceRank is Rank as it was before lookaheads re-solved by
// propagation, kept verbatim: it re-solves the whole document once per
// variable and alternative and scores every component of every
// lookahead view. TestRankMatchesReference holds Rank to it.
func referenceRank(doc *document.Document, choices cpnet.Outcome) ([]Candidate, error) {
	base, err := doc.ReconfigPresentation(choices)
	if err != nil {
		return nil, err
	}
	type object struct {
		table string
		id    uint64
	}
	best := make(map[object]Candidate)
	add := func(v document.View, score float64) {
		for _, c := range doc.Components() {
			if c.Composite() || !v.Visible[c.Name] {
				continue
			}
			p, err := c.Presentation(v.Outcome[c.Name])
			if err != nil || p.ObjectID == 0 {
				continue
			}
			key := object{mediadb.KindTable(p.Kind), p.ObjectID}
			if key.table == "" {
				continue
			}
			cand := Candidate{
				Component: c.Name, Value: p.Name,
				ObjectID: p.ObjectID, Bytes: p.Bytes, Kind: p.Kind, Score: score,
			}
			if old, ok := best[key]; !ok || cand.Score > old.Score {
				best[key] = cand
			}
		}
	}
	add(base, 1.0)

	// One-step lookahead: the viewer's next click pins one variable to an
	// alternative value. Alternatives that the author ranks higher (given
	// everything else) are likelier clicks.
	for _, v := range doc.Prefs.Variables() {
		current := base.Outcome[v.Name]
		for rank, alt := range v.Domain {
			if alt == current {
				continue
			}
			ev := choices.Clone()
			ev[v.Name] = alt
			view, err := doc.ReconfigPresentation(ev)
			if err != nil {
				return nil, err
			}
			score := lookaheadWeight / float64(2+rank)
			add(view, score)
		}
	}
	out := make([]Candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].ObjectID != out[j].ObjectID {
			return out[i].ObjectID < out[j].ObjectID
		}
		return mediadb.KindTable(out[i].Kind) < mediadb.KindTable(out[j].Kind)
	})
	return out, nil
}

// TestRankMatchesReference: Rank — one base solve, each lookahead
// re-solved by propagation from the flipped variable, only the
// components that differ from the base scored — returns exactly what the
// whole-document reference returns: the same candidates, scores and
// order. It walks random documents (components sharing object ids,
// random conditioning, shared operation variables)
// under random choices, and a wide chain.
func TestRankMatchesReference(t *testing.T) {
	check := func(name string, doc *document.Document, choices cpnet.Outcome) {
		t.Helper()
		got, err := Rank(doc, choices)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceRank(doc, choices)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s under %v:\n got %v\nwant %v", name, choices, got, want)
		}
	}
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc, err := workload.RandomRecord("r", 2+rng.Intn(24), seed)
		if err != nil {
			t.Fatal(err)
		}
		var leaves []string
		for _, c := range doc.Components() {
			if !c.Composite() {
				leaves = append(leaves, c.Name)
			}
		}
		if seed%3 == 0 {
			leaf, _ := doc.Component(leaves[rng.Intn(len(leaves))])
			if _, err := doc.ApplyOperation(leaf.Name, "zoom", leaf.Presentations[0].Name); err != nil {
				t.Fatal(err)
			}
		}
		vars := doc.Prefs.Variables()
		for trial := 0; trial < 4; trial++ {
			choices := cpnet.Outcome{}
			for _, v := range vars {
				if rng.Intn(4) == 0 {
					choices[v.Name] = v.Domain[rng.Intn(len(v.Domain))]
				}
			}
			check(fmt.Sprintf("seed %d trial %d", seed, trial), doc, choices)
		}
	}
	wide, err := workload.WideRecord("w", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("wide", wide, nil)
	check("wide, one pinned", wide, cpnet.Outcome{"img100": "hidden"})
}
