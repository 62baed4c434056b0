package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/workload"
)

// mapID identifies a map value: two maps share it only when they are the
// same map.
func mapID(m any) uintptr { return reflect.ValueOf(m).Pointer() }

// checkMemo compares what the engine hands out with a fresh solve per
// viewer, and checks who shares a View with whom.
func checkMemo(t *testing.T, e *Engine, step string) {
	t.Helper()
	views, err := e.Views()
	if err != nil {
		t.Fatalf("%s: Views: %v", step, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(views) != len(e.viewers) {
		t.Fatalf("%s: %d views for %d viewers", step, len(views), len(e.viewers))
	}
	for viewer := range e.viewers {
		want, err := e.referenceViewLocked(viewer)
		if err != nil {
			t.Fatalf("%s: solving %s: %v", step, viewer, err)
		}
		if got := views[viewer]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s is handed\n%v\nand a fresh solve gives\n%v", step, viewer, got, want)
		}
		again, err := e.viewForLocked(viewer)
		if err != nil {
			t.Fatalf("%s: second lookup for %s: %v", step, viewer, err)
		}
		if mapID(again.Outcome) != mapID(views[viewer].Outcome) {
			t.Fatalf("%s: %s was solved twice in one generation", step, viewer)
		}
	}
	for a, va := range e.viewers {
		for b, vb := range e.viewers {
			if a >= b {
				continue
			}
			sameClass := va.ov.Empty() && vb.ov.Empty() && maps.Equal(va.env, vb.env)
			shared := mapID(views[a].Outcome) == mapID(views[b].Outcome)
			sharedVis := mapID(views[a].Visible) == mapID(views[b].Visible)
			if shared != sameClass || sharedVis != sameClass {
				t.Fatalf("%s: %s and %s: same class %v, share Outcome %v, share Visible %v",
					step, a, b, sameClass, shared, sharedVis)
			}
		}
	}
}

// TestMemoizedViewsEqualFreshSolves walks the engine through every
// mutator at random and, after each step, holds the views it hands out
// against unmemoized solves of the network each viewer would hold if it
// were duplicated: equal for every viewer, one shared View per evidence
// class, never shared with a viewer who has private variables. Private
// operations stack, two viewers make the same one, each pins their own,
// and components go away under them.
// A mutator that does not bump the generation fails here twice: the
// counter check below, and the stale view the next lookup returns.
func TestMemoizedViewsEqualFreshSolves(t *testing.T) {
	tried := map[string]int{}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { memoWalk(t, seed, tried) })
	}
	for _, what := range []string{"removal", "private operation another viewer made", "private variable dropped by a removal"} {
		if tried[what] == 0 {
			t.Errorf("no walk tried a %s: %v", what, tried)
		}
	}
}

// memoWalk walks one seed, counting in tried the rarer steps it took.
func memoWalk(t *testing.T, seed int64, tried map[string]int) {
	doc, err := workload.MedicalRecord("rec-memo", seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := AddBandwidthTuning(doc, AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	names := []string{"v0", "v1", "v2", "v3", "v4", "v5"}
	levels := []string{BandwidthLow, BandwidthMedium, BandwidthHigh, ""}
	var leaves []string
	for _, c := range doc.Components() {
		if !c.Composite() {
			leaves = append(leaves, c.Name)
		}
	}
	joined := func() []string { return e.Viewers() }
	// Operations and added components grow the network for good; a few
	// of each exercise the path without slowing the walk.
	sharedOps, privateOps, added, removed := 0, 0, 0, 0
	private := func(v string) []string {
		var names []string
		for _, pv := range e.viewers[v].ov.Private() {
			names = append(names, pv.Name)
		}
		return names
	}
	privateCount := func() (n int) {
		for _, v := range joined() {
			n += len(private(v))
		}
		return n
	}
	// madeOnLeaves lists the private operations joined viewers made
	// directly on a component.
	madeOnLeaves := func() []cpnet.PrivateVariable {
		var out []cpnet.PrivateVariable
		for _, v := range joined() {
			for _, pv := range e.viewers[v].ov.Private() {
				if slices.Contains(leaves, pv.Parent) {
					out = append(out, pv)
				}
			}
		}
		return out
	}

	for i := 0; i < 400; i++ {
		before := e.gen
		mutated := false
		step := ""
		in := joined()
		switch k := rng.Intn(10); {
		case k == 0 || len(in) == 0: // join
			v := pick(names)
			step = "join " + v
			_, err := e.Join(v)
			mutated = err == nil
		case k == 1: // leave
			v := pick(in)
			step = "leave " + v
			_, err := e.Leave(v)
			mutated = err == nil
		case k <= 4: // choice or retraction on a shared variable
			v := pick(in)
			vars := doc.Prefs.Variables()
			variable := vars[rng.Intn(len(vars))]
			value := pick(append([]string{""}, variable.Domain...))
			step = fmt.Sprintf("choice %s %s=%q", v, variable.Name, value)
			held := e.choiceBy[variable.Name] != ""
			_, err := e.Choice(v, variable.Name, value)
			mutated = err == nil && (value != "" || held)
		case k == 5: // choice on a private variable
			v := pick(in)
			if len(private(v)) == 0 {
				continue
			}
			variable := pick(private(v))
			value := pick([]string{cpnet.OpApplied, cpnet.OpFlat, ""})
			step = fmt.Sprintf("private choice %s %s=%q", v, variable, value)
			_, held := e.viewers[v].pins[variable]
			_, err := e.Choice(v, variable, value)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			mutated = value != "" || held
		case k == 6: // operation, shared or private
			v := pick(in)
			priv := rng.Intn(2) == 0
			if (priv && len(private(v)) >= 4) || (!priv && sharedOps >= 6) {
				continue
			}
			comp, op := pick(leaves), fmt.Sprintf("op%d", i)
			dom, err := doc.Prefs.Domain(comp)
			if err != nil {
				t.Fatal(err)
			}
			activeWhen := pick(dom)
			if priv {
				op = pick([]string{"zoom", "grid"})
				if len(private(v)) > 0 && rng.Intn(3) == 0 { // stacked
					comp, activeWhen = pick(private(v)), pick([]string{cpnet.OpApplied, cpnet.OpFlat})
				} else if made := madeOnLeaves(); len(made) > 0 && rng.Intn(2) == 0 {
					pv := made[rng.Intn(len(made))] // someone's, perhaps v's own
					comp, op, activeWhen = pv.Parent, strings.TrimPrefix(pv.Name, pv.Parent+"/"), pv.ActiveWhen
				}
			}
			step = fmt.Sprintf("operation %s %s/%s private=%v", v, comp, op, priv)
			name, err := e.Operation(v, comp, op, activeWhen, priv)
			mutated = true // a refused operation bumps the generation too
			if err != nil {
				if priv && e.viewers[v].ov.Owns(cpnet.OperationVariableName(comp, op)) {
					break // the viewer made this one already
				}
				t.Fatalf("%s: %v", step, err)
			}
			if !priv {
				sharedOps++
				break
			}
			privateOps++
			for _, other := range in {
				if other != v && e.viewers[other].ov.Owns(name) {
					tried["private operation another viewer made"]++
				}
			}
		case k == 7: // room-wide environment
			level := pick(levels)
			step = "environment " + level
			mutated = e.SetEnvironment(BandwidthVariable, level) == nil
		case k == 8: // one viewer's environment
			v := pick(in)
			level := pick(levels)
			step = fmt.Sprintf("viewer environment %s %q", v, level)
			changed, err := e.SetViewerEnvironment(v, BandwidthVariable, level)
			mutated = err == nil && changed
		case k == 9 && removed < 4 && len(leaves) > 3: // remove a component
			comp := pick(leaves)
			if made := madeOnLeaves(); len(made) > 0 && rng.Intn(2) == 0 {
				comp = made[rng.Intn(len(made))].Parent // one a private operation hangs off
			}
			had := privateCount()
			step = "remove component " + comp
			if err := e.EditDocument(func(d *document.Document) error { return d.RemoveComponent(comp) }); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			leaves = slices.DeleteFunc(leaves, func(l string) bool { return l == comp })
			removed++
			tried["removal"]++
			tried["private variable dropped by a removal"] += had - privateCount()
			mutated = true
		default: // document edit
			if added >= 4 {
				continue
			}
			added++
			name := fmt.Sprintf("extra-%d", added)
			step = "add component " + name
			err := e.EditDocument(func(d *document.Document) error {
				return d.AddComponent(d.Root.Name, &document.Component{
					Name: name,
					Presentations: []document.Presentation{
						{Name: "text", Kind: document.KindText},
						{Name: "hidden", Kind: document.KindHidden},
					},
				}, nil, []string{"text", "hidden"})
			})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			leaves = append(leaves, name)
			mutated = true
		}
		step = fmt.Sprintf("step %d (%s)", i, step)
		if mutated && e.gen == before {
			t.Fatalf("%s changed the engine and left the generation at %d", step, before)
		}
		checkMemo(t, e, step)
	}
	if sharedOps == 0 || privateOps == 0 || added == 0 {
		t.Fatalf("walk too short: %d shared operations, %d private, %d components added", sharedOps, privateOps, added)
	}
}

// TestOneSolvePerEvidenceClass counts solves by the maps they make: a
// choice in a four-viewer room where everyone's evidence is the same is
// one new Outcome, and a viewer with a measured environment of their own
// is a second.
func TestOneSolvePerEvidenceClass(t *testing.T) {
	doc, err := workload.MedicalRecord("rec-class", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := AddBandwidthTuning(doc, AutoBandwidthTemplates(doc, 0)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c", "d"} {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
	distinct := func() int {
		t.Helper()
		views, err := e.Views()
		if err != nil {
			t.Fatal(err)
		}
		ids := map[uintptr]bool{}
		for _, v := range views {
			ids[mapID(v.Outcome)] = true
		}
		return len(ids)
	}
	own, err := e.Choice("a", "ct", "segmented")
	if err != nil {
		t.Fatal(err)
	}
	if n := distinct(); n != 1 {
		t.Errorf("four viewers with the same evidence hold %d distinct outcomes", n)
	}
	if views, _ := e.Views(); mapID(views["d"].Outcome) != mapID(own.Outcome) {
		t.Error("the view Choice returned is not the one Views hands the others")
	}
	if _, err := e.SetViewerEnvironment("b", BandwidthVariable, BandwidthLow); err != nil {
		t.Fatal(err)
	}
	if n := distinct(); n != 2 {
		t.Errorf("two environments, %d distinct outcomes", n)
	}
	if _, err := e.Operation("c", "ct", "zoom", "full", true); err != nil {
		t.Fatal(err)
	}
	if n := distinct(); n != 3 {
		t.Errorf("two environments and a private overlay, %d distinct outcomes", n)
	}
}
