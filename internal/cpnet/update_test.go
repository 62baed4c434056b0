package cpnet

import (
	"reflect"
	"strings"
	"testing"
)

func TestAddComponentVariable(t *testing.T) {
	n := fig2Network(t)
	err := n.AddComponentVariable("xray", []string{"full", "icon", "hidden"},
		[]string{"c3"}, []string{"icon", "full", "hidden"})
	if err != nil {
		t.Fatalf("AddComponentVariable: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid after add: %v", err)
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if opt["xray"] != "icon" {
		t.Errorf("new component optimal value = %q, want icon", opt["xray"])
	}
	// Both c3 contexts must carry the default order.
	for _, ev := range []Outcome{{"c3": "c13"}, {"c3": "c23"}} {
		o, err := n.OptimalCompletion(ev)
		if err != nil {
			t.Fatal(err)
		}
		if o["xray"] != "icon" {
			t.Errorf("xray under %v = %q, want icon", ev, o["xray"])
		}
	}
}

func TestAddComponentVariableRollback(t *testing.T) {
	n := fig2Network(t)
	// Unknown parent must roll the variable back out.
	if err := n.AddComponentVariable("bad", []string{"a", "b"}, []string{"nosuch"}, []string{"a", "b"}); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if n.HasVariable("bad") {
		t.Error("failed add left the variable behind")
	}
	// Bad default order must roll back too.
	if err := n.AddComponentVariable("bad2", []string{"a", "b"}, nil, []string{"a", "q"}); err == nil {
		t.Fatal("bad default order accepted")
	}
	if n.HasVariable("bad2") {
		t.Error("failed add left the variable behind")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("network invalid after rollbacks: %v", err)
	}
}

func TestRemoveComponentVariableLeaf(t *testing.T) {
	n := fig2Network(t)
	if err := n.RemoveComponentVariable("c5"); err != nil {
		t.Fatalf("RemoveComponentVariable: %v", err)
	}
	if n.HasVariable("c5") {
		t.Error("c5 still present")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid after removal: %v", err)
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	want := Outcome{"c1": "c11", "c2": "c22", "c3": "c23", "c4": "c24"}
	if opt.String() != want.String() {
		t.Errorf("optimum after leaf removal = %v, want %v", opt, want)
	}
}

func TestRemoveComponentVariableInternal(t *testing.T) {
	n := fig2Network(t)
	// Removing c3 re-parents c4 and c5 as roots, with rows projected at
	// c3's optimal value c23 (so c4 prefers c24, c5 prefers c25).
	if err := n.RemoveComponentVariable("c3"); err != nil {
		t.Fatalf("RemoveComponentVariable: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid after removal: %v", err)
	}
	for _, name := range []string{"c4", "c5"} {
		ps, err := n.Parents(name)
		if err != nil || len(ps) != 0 {
			t.Errorf("parents of %s = %v, %v; want none", name, ps, err)
		}
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	want := Outcome{"c1": "c11", "c2": "c22", "c4": "c24", "c5": "c25"}
	if opt.String() != want.String() {
		t.Errorf("optimum after internal removal = %v, want %v", opt, want)
	}
}

func TestRemoveComponentVariableUnknown(t *testing.T) {
	n := fig2Network(t)
	if err := n.RemoveComponentVariable("nosuch"); err == nil {
		t.Fatal("unknown variable removal accepted")
	}
}

func TestAddOperationVariable(t *testing.T) {
	n := fig2Network(t)
	// §4.2 worked example: a viewer segments c3 while it is presented as
	// c23. The derived variable prefers "applied" exactly when c3 = c23.
	name, err := n.AddOperationVariable("c3", "segmentation", "c23")
	if err != nil {
		t.Fatalf("AddOperationVariable: %v", err)
	}
	if name != "c3/segmentation" {
		t.Errorf("derived name = %q", name)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid after operation: %v", err)
	}
	opt, err := n.OptimalOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if opt["c3"] != "c23" || opt[name] != OpApplied {
		t.Errorf("optimum = %v; want c3=c23 with %s applied", opt, name)
	}
	o, err := n.OptimalCompletion(Outcome{"c3": "c13"})
	if err != nil {
		t.Fatal(err)
	}
	if o[name] != OpFlat {
		t.Errorf("operation variable under c3=c13 is %q, want flat", o[name])
	}
	// The domain of c3 itself is unchanged (the paper's key point).
	dom, _ := n.Domain("c3")
	if strings.Join(dom, ",") != "c13,c23" {
		t.Errorf("c3 domain changed to %v", dom)
	}
}

func TestAddOperationVariableErrors(t *testing.T) {
	n := fig2Network(t)
	if _, err := n.AddOperationVariable("nosuch", "zoom", "c13"); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := n.AddOperationVariable("c3", "zoom", "nosuch"); err == nil {
		t.Error("unknown presentation accepted")
	}
	if _, err := n.AddOperationVariable("c3", "zoom", "c23"); err != nil {
		t.Fatalf("first zoom: %v", err)
	}
	if _, err := n.AddOperationVariable("c3", "zoom", "c23"); err == nil {
		t.Error("duplicate operation variable accepted")
	}
}

// extension is the network an overlay stands for: the base duplicated
// and extended by the overlay's records, each replayed as the shared
// update would make it. §4.2 forbids building it outside tests; here it
// is what the records must mean.
func extension(t *testing.T, ov *Overlay) *Network {
	t.Helper()
	n := ov.Base().Clone()
	for _, pv := range ov.Private() {
		op := strings.TrimPrefix(pv.Name, pv.Parent+"/")
		if _, err := n.AddOperationVariable(pv.Parent, op, pv.ActiveWhen); err != nil {
			t.Fatalf("replaying %+v: %v", pv, err)
		}
	}
	return n
}

func TestOverlayIsolation(t *testing.T) {
	base := fig2Network(t)
	baseText := base.Text()

	alice := NewOverlay(base)
	bob := NewOverlay(base)

	segName, err := alice.AddOperationVariable("c3", "segmentation", "c23")
	if err != nil {
		t.Fatalf("alice AddOperationVariable: %v", err)
	}
	// The base network must be untouched — no duplication, no new vars.
	if base.Text() != baseText {
		t.Fatal("overlay mutated the shared base network")
	}
	if base.HasVariable(segName) {
		t.Fatal("operation variable leaked into the base")
	}
	if alice.Empty() || !alice.Owns(segName) || alice.Owns("c3") {
		t.Errorf("alice: Empty %v, owns %s %v, owns the base's c3 %v",
			alice.Empty(), segName, alice.Owns(segName), alice.Owns("c3"))
	}
	if !bob.Empty() || bob.Owns(segName) {
		t.Errorf("bob: Empty %v, owns %s %v", bob.Empty(), segName, bob.Owns(segName))
	}
	// The overlay holds the record and nothing of the base.
	want := []PrivateVariable{{Name: segName, Parent: "c3", ActiveWhen: "c23"}}
	if got := alice.Private(); !reflect.DeepEqual(got, want) {
		t.Errorf("alice records %+v, want %+v", got, want)
	}

	aliceOut, err := extension(t, alice).OptimalCompletion(nil)
	if err != nil {
		t.Fatalf("alice completion: %v", err)
	}
	if aliceOut[segName] != OpApplied {
		t.Errorf("alice sees %s=%q, want applied", segName, aliceOut[segName])
	}
	bobOut, err := extension(t, bob).OptimalCompletion(nil)
	if err != nil {
		t.Fatalf("bob completion: %v", err)
	}
	if _, leaked := bobOut[segName]; leaked {
		t.Error("bob sees alice's private extension variable")
	}
	// An empty overlay completes exactly as the base does, evidence and
	// refusals included.
	ev := Outcome{"c3": "c13"}
	baseOut, err := base.OptimalCompletion(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := extension(t, bob).OptimalCompletion(ev); err != nil || !reflect.DeepEqual(got, baseOut) {
		t.Errorf("empty overlay under %v: %v, %v; the base gives %v", ev, got, err, baseOut)
	}
	if _, err := extension(t, bob).OptimalCompletion(Outcome{segName: OpFlat}); err == nil {
		t.Error("bob's completion accepted evidence on alice's private variable")
	}
	// Base projection of alice's completion equals bob's completion.
	for _, v := range base.Variables() {
		if aliceOut[v.Name] != bobOut[v.Name] {
			t.Errorf("base variable %s differs between viewers: %q vs %q",
				v.Name, aliceOut[v.Name], bobOut[v.Name])
		}
	}
}

func TestOverlayEvidenceRouting(t *testing.T) {
	base := fig2Network(t)
	ov := NewOverlay(base)
	segName, err := ov.AddOperationVariable("c3", "segmentation", "c23")
	if err != nil {
		t.Fatal(err)
	}
	ext := extension(t, ov)
	// Pin the private variable to flat even though c3 = c23.
	out, err := ext.OptimalCompletion(Outcome{segName: OpFlat})
	if err != nil {
		t.Fatal(err)
	}
	if out[segName] != OpFlat {
		t.Errorf("pinned extension variable = %q, want flat", out[segName])
	}
	if out["c3"] != "c23" {
		t.Errorf("base variable disturbed by extension evidence: c3=%q", out["c3"])
	}
	// Base evidence reaches the private variable through its parent.
	out, err = ext.OptimalCompletion(Outcome{"c3": "c13"})
	if err != nil {
		t.Fatal(err)
	}
	if out["c3"] != "c13" || out[segName] != OpFlat {
		t.Errorf("completion under base evidence = %v", out)
	}
}

func TestOverlayStacking(t *testing.T) {
	base := fig2Network(t)
	ov := NewOverlay(base)
	seg, err := ov.AddOperationVariable("c3", "segmentation", "c23")
	if err != nil {
		t.Fatal(err)
	}
	// Operation on the overlay's own variable (zoom the segmented view).
	zoom, err := ov.AddOperationVariable(seg, "zoom", OpApplied)
	if err != nil {
		t.Fatalf("stacked operation: %v", err)
	}
	if got := ov.Private()[1]; got != (PrivateVariable{Name: zoom, Parent: seg, ActiveWhen: OpApplied}) {
		t.Errorf("stacked record %+v", got)
	}
	ext := extension(t, ov)
	out, err := ext.OptimalCompletion(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[zoom] != OpApplied {
		t.Errorf("stacked variable = %q, want applied", out[zoom])
	}
	out, err = ext.OptimalCompletion(Outcome{seg: OpFlat})
	if err != nil {
		t.Fatal(err)
	}
	if out[zoom] != OpFlat {
		t.Errorf("stacked variable under flat parent = %q, want flat", out[zoom])
	}
	if !ov.Owns(seg) || !ov.Owns(zoom) {
		t.Errorf("overlay owns %s: %v, %s: %v; want both", seg, ov.Owns(seg), zoom, ov.Owns(zoom))
	}
}

func TestOverlayErrors(t *testing.T) {
	base := fig2Network(t)
	ov := NewOverlay(base)
	if _, err := ov.AddOperationVariable("nosuch", "zoom", "x"); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := ov.AddOperationVariable("c3", "zoom", "nosuch"); err == nil {
		t.Error("unknown presentation accepted")
	}
	if ov.Base() != base {
		t.Error("Base accessor broken")
	}
	if !ov.Empty() {
		t.Error("refused operations left something in the overlay")
	}
	seg, err := ov.AddOperationVariable("c3", "segmentation", "c23")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov.AddOperationVariable("c3", "segmentation", "c13"); err == nil {
		t.Error("duplicate private variable accepted")
	}
	if _, err := ov.AddOperationVariable(seg, "zoom", "c23"); err == nil {
		t.Error("a private parent's unknown value accepted")
	}
	if _, err := base.AddOperationVariable("c4", "zoom", "c14"); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.AddOperationVariable("c4", "zoom", "c14"); err == nil {
		t.Error("private variable shadowing a shared one accepted")
	}
	if len(ov.Private()) != 1 {
		t.Errorf("refused operations left %d records, want 1", len(ov.Private()))
	}
}

// TestOverlayPrune: an edit of the base drops the private variables it
// leaves without a parent — their private descendants with them — and
// those it makes shared, and keeps the rest.
func TestOverlayPrune(t *testing.T) {
	base := fig2Network(t)
	ov := NewOverlay(base)
	seg, _ := ov.AddOperationVariable("c4", "segmentation", "c14")
	zoom, _ := ov.AddOperationVariable(seg, "zoom", OpApplied)
	grid, _ := ov.AddOperationVariable("c5", "grid", "c25")
	keep, _ := ov.AddOperationVariable("c3", "annotate", "c13")
	if len(ov.Private()) != 4 {
		t.Fatalf("set-up made %d private variables", len(ov.Private()))
	}
	if dropped := ov.Prune(); dropped != nil {
		t.Errorf("an unchanged base dropped %v", dropped)
	}
	if err := base.RemoveComponentVariable("c4"); err != nil {
		t.Fatal(err)
	}
	if _, err := base.AddOperationVariable("c5", "grid", "c15"); err != nil {
		t.Fatal(err)
	}
	if dropped := ov.Prune(); !reflect.DeepEqual(dropped, []string{seg, zoom, grid}) {
		t.Errorf("pruned %v, want %v", dropped, []string{seg, zoom, grid})
	}
	want := []PrivateVariable{{Name: keep, Parent: "c3", ActiveWhen: "c13"}}
	if got := ov.Private(); !reflect.DeepEqual(got, want) {
		t.Errorf("kept %+v, want %+v", got, want)
	}
}
