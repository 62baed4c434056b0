package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/prefetch"
	"mmconf/internal/workload"
)

// TestSolvedViewsEqualFullSolves walks engines over random documents —
// random trees and conditioning, bandwidth tuning — through joins and
// leaves, choices set, changed and retracted, room-wide and per-viewer
// environment pins, shared operations (an AddOperationVariable between
// steps, which recompiles the document) and private ones (overlays).
// After every step each viewer's Solved view, re-solved by propagation
// from the one before, is held to a full OptimalCompletion of the
// viewer's evidence (the overlay's, for a viewer who has private
// variables) and to the fresh map-based solve.
func TestSolvedViewsEqualFullSolves(t *testing.T) {
	tried := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { solvedWalk(t, seed, tried) })
	}
	for _, what := range []string{"retract", "shared operation", "private operation", "private choice", "viewer environment"} {
		if tried[what] == 0 {
			t.Errorf("no walk tried a %s: %v", what, tried)
		}
	}
}

// solvedWalk walks one seed, counting in tried the steps of each kind
// that changed the engine.
func solvedWalk(t *testing.T, seed int64, tried map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	doc, err := workload.RandomRecord("r", 3+rng.Intn(20), seed)
	if err != nil {
		t.Fatal(err)
	}
	tuned := false
	if templates := AutoBandwidthTemplates(doc, 16<<10); len(templates) > 0 {
		if err := AddBandwidthTuning(doc, templates); err != nil {
			t.Fatal(err)
		}
		tuned = true
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	levels := []string{BandwidthLow, BandwidthMedium, BandwidthHigh, ""}
	private := map[string][]string{}
	for step := 0; step < 120; step++ {
		in := e.Viewers()
		what := ""
		switch k := rng.Intn(10); {
		case k == 0 || len(in) == 0:
			v := pick([]string{"a", "b", "c", "d"})
			what = "join " + v
			e.Join(v)
		case k == 1:
			v := pick(in)
			what = "leave " + v
			e.Leave(v)
			delete(private, v)
		case k <= 5:
			vars := doc.Prefs.Variables()
			variable := vars[rng.Intn(len(vars))]
			value := pick(append([]string{""}, variable.Domain...))
			what = fmt.Sprintf("choice %s=%q", variable.Name, value)
			if _, err := e.Choice(pick(in), variable.Name, value); err == nil && value == "" {
				tried["retract"]++
			}
		case k == 6 && tuned:
			what = "environment"
			e.SetEnvironment(BandwidthVariable, pick(levels))
		case k == 7 && tuned:
			what = "viewer environment"
			if changed, _ := e.SetViewerEnvironment(pick(in), BandwidthVariable, pick(levels)); changed {
				tried[what]++
			}
		case k == 8:
			v := pick(in)
			vars := doc.Prefs.Variables()
			comp := vars[rng.Intn(len(vars))]
			priv := rng.Intn(2) == 0
			what = fmt.Sprintf("operation on %s, private %v", comp.Name, priv)
			name, err := e.Operation(v, comp.Name, fmt.Sprint("op", step), pick(comp.Domain), priv)
			if err != nil {
				continue // an operation variable is no component of the document
			}
			if priv {
				private[v] = append(private[v], name)
				tried["private operation"]++
			} else {
				tried["shared operation"]++
			}
		default:
			v := pick(in)
			if len(private[v]) == 0 {
				continue
			}
			name := pick(private[v])
			what = "private choice " + name
			if _, err := e.Choice(v, name, pick([]string{cpnet.OpApplied, cpnet.OpFlat, ""})); err == nil {
				tried["private choice"]++
			}
		}
		for _, viewer := range e.Viewers() {
			got, err := e.Solved(viewer)
			if err != nil {
				t.Fatalf("step %d (%s): %s: %v", step, what, viewer, err)
			}
			e.mu.Lock()
			ov := e.overlays[viewer]
			ev := cpnet.Outcome{}
			e.evidenceLocked(viewer, ov, func(variable, value string) { ev[variable] = value })
			fresh, err := e.solveLocked(viewer, ov)
			e.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ov.OptimalCompletion(ev)
			if err != nil {
				t.Fatal(err)
			}
			if v := got.View(); !reflect.DeepEqual(v.Outcome, want) || !reflect.DeepEqual(v, fresh) {
				t.Fatalf("step %d (%s): %s holds\n%v %v\nthe completion is\n%v\nand a fresh solve\n%v %v",
					step, what, viewer, v.Outcome, v.Visible, want, fresh.Outcome, fresh.Visible)
			}
		}
	}
}

// idRecord is the medical record with bandwidth tuning and a stored
// object behind every visible presentation but the inline ones.
func idRecord(t *testing.T) *document.Document {
	t.Helper()
	doc, err := workload.MedicalRecord("rec-ids", 1)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	for _, c := range doc.Components() {
		for i := range c.Presentations {
			if mediadb.KindTable(c.Presentations[i].Kind) != "" {
				id++
				c.Presentations[i].ObjectID = id
			}
		}
	}
	if err := AddBandwidthTuning(doc, AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	return doc
}

// shownPayloads lists the stored payloads a view shows.
func shownPayloads(doc *document.Document, v document.View) []string {
	var out []string
	for _, c := range doc.Components() {
		if c.Composite() || !v.Visible[c.Name] {
			continue
		}
		if p, err := c.Presentation(v.Outcome[c.Name]); err == nil && p.ObjectID != 0 {
			out = append(out, fmt.Sprintf("%s=%s #%d", c.Name, p.Name, p.ObjectID))
		}
	}
	sort.Strings(out)
	return out
}

// TestPrefetchRankReadsTheViewersEvidence: with a room-wide bandwidth pin
// at high and the viewer's own measurement at low, the payloads the
// ranking is certain of (score 1) are exactly the ones the viewer's view
// shows: the viewer's measurement wins in both.
func TestPrefetchRankReadsTheViewersEvidence(t *testing.T) {
	doc := idRecord(t)
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	e.Join("clinic")
	if err := e.SetEnvironment(BandwidthVariable, BandwidthHigh); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetViewerEnvironment("clinic", BandwidthVariable, BandwidthLow); err != nil {
		t.Fatal(err)
	}
	view, err := e.ViewFor("clinic")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := e.PrefetchRank("clinic")
	if err != nil {
		t.Fatal(err)
	}
	var certain []string
	for _, c := range cands {
		if c.Score == 1 {
			certain = append(certain, fmt.Sprintf("%s=%s #%d", c.Component, c.Value, c.ObjectID))
		}
	}
	sort.Strings(certain)
	want := shownPayloads(doc, view)
	if len(want) == 0 || !reflect.DeepEqual(certain, want) {
		t.Errorf("the ranking is certain of %v; the viewer's view shows %v", certain, want)
	}
}

// wideEngine is an engine over a wide chain record whose presentations
// each have a stored object, with one viewer joined.
func wideEngine(t *testing.T, n int) *Engine {
	t.Helper()
	doc, err := workload.WideRecord("wide", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range doc.Components() {
		for j := range c.Presentations {
			if c.Presentations[j].Kind != document.KindHidden {
				c.Presentations[j].ObjectID = uint64(2*i + j + 1)
			}
		}
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join("viewer"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPrefetchRankWideRecord bounds the ranking of E12's 5 000-component
// record. Re-solving every lookahead whole made it quadratic: 0.77 s at
// 1 000 components and 2.8 s at 2 000 (about 18 s at 5 000). With one
// base solve and each lookahead propagated from the flipped variable it
// measured 8–12 ms at 5 000, 10 000 candidates (go1.24, linux/amd64, two
// cores); the bound is 100 ms, 28 times under the old cost at 2 000. The
// race detector slows it about twentyfold, so it only times without one.
func TestPrefetchRankWideRecord(t *testing.T) {
	e := wideEngine(t, 5000)
	start := time.Now()
	cands, err := e.PrefetchRank("viewer")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 5000 {
		t.Errorf("%d candidates for a record showing 5 000 stored images", len(cands))
	}
	t.Logf("ranked %d candidates in %v", len(cands), elapsed)
	if !raceEnabled && elapsed > 100*time.Millisecond {
		t.Errorf("PrefetchRank took %v on 5 000 components, want under 100ms", elapsed)
	}
}

// parkRank makes e's rankings wait, mid-rank and off the lock, until the
// returned release is called; parked receives once per ranking that
// reached that point.
func parkRank(t *testing.T, e *Engine) (parked <-chan struct{}, release func()) {
	t.Helper()
	at, gate := make(chan struct{}, 1), make(chan struct{})
	e.rank = func(s *document.Schema, pins []uint8) ([]prefetch.Candidate, error) {
		at <- struct{}{}
		<-gate
		return prefetch.RankSchema(s, pins)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return at, release
}

// TestChoiceWhileRankParked: a ranking holds no engine lock while it
// ranks, so a choice made while one is parked mid-rank completes, and the
// ranking then finishes against the evidence it started from.
func TestChoiceWhileRankParked(t *testing.T) {
	e := wideEngine(t, 200)
	want, err := e.PrefetchRank("viewer")
	if err != nil {
		t.Fatal(err)
	}
	parked, release := parkRank(t, e)
	type result struct {
		cands []prefetch.Candidate
		err   error
	}
	done := make(chan result, 1)
	go func() {
		c, err := e.PrefetchRank("viewer")
		done <- result{c, err}
	}()
	<-parked
	chose := make(chan error, 1)
	go func() {
		_, err := e.Choice("viewer", "img010", "hidden")
		chose <- err
	}()
	select {
	case err := <-chose:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a choice waited on a ranking parked outside the engine lock")
	}
	release()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !reflect.DeepEqual(got.cands, want) {
		t.Error("the parked ranking saw the choice made after it took its evidence")
	}
}

// TestRankBesideEdits runs rankings off the lock while other goroutines
// edit the document and add operation variables, shared and private: the
// race detector (CI runs this package under it) sees no shared write, and
// every ranking is one of a document the engine held at some point.
func TestRankBesideEdits(t *testing.T) {
	e := wideEngine(t, 60)
	e.Join("editor")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("extra-%d", i)
			err := e.EditDocument(func(d *document.Document) error {
				return d.AddComponent(d.Root.Name, &document.Component{Name: name, Presentations: []document.Presentation{
					{Name: "full", Kind: document.KindImage, ObjectID: uint64(10000 + i)},
					{Name: "hidden", Kind: document.KindHidden},
				}}, nil, []string{"full", "hidden"})
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Operation("editor", fmt.Sprintf("img%03d", i%60), fmt.Sprint("op", i), "full", i%2 == 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.Choice("viewer", fmt.Sprintf("img%03d", i), "icon"); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		cands, err := e.PrefetchRank("viewer")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, c := range cands {
			if seen[c.ObjectID] {
				t.Fatalf("object %d ranked twice", c.ObjectID)
			}
			seen[c.ObjectID] = true
		}
	}
	close(stop)
	wg.Wait()
	if choices := e.Choices(); choices["img019"] != "icon" || len(choices) < 20 {
		t.Errorf("the choices made beside the rankings: %v", e.Choices())
	}
}

// TestChoiceResolvesIntoOneAllocation: a choice in a four-viewer room of
// one evidence class costs the engine one allocation — the new Solved
// view, whose two vectors live inside it for a document this small. The
// evidence is re-pinned into the engine's own vector, the re-solve works
// in the solver's kept space, and no map is built.
func TestChoiceResolvesIntoOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	e := testEngine(t)
	viewers := []string{"a", "b", "c", "d"}
	for _, v := range viewers {
		if err := e.AddViewer(v); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	step := func() {
		i++
		if err := e.SetChoice("a", "ct", []string{"segmented", "full"}[i%2]); err != nil {
			t.Fatal(err)
		}
		for _, v := range viewers {
			if _, err := e.Solved(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if got := testing.AllocsPerRun(200, step); got != 1 {
		t.Errorf("a choice re-solved for four viewers allocates %v times, want 1", got)
	}
}
