package core

import (
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/workload"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := workload.MedicalRecord("rec-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil document accepted")
	}
	// A document whose network is incomplete is rejected.
	root := &document.Component{Name: "r", Children: []*document.Component{
		{Name: "x", Presentations: []document.Presentation{{Name: "p"}}},
	}}
	doc, err := document.New("d", "t", root)
	if err != nil {
		t.Fatal(err)
	}
	doc.Prefs = cpnet.New() // empty network
	if _, err := NewEngine(doc); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestJoinLeaveLifecycle(t *testing.T) {
	e := testEngine(t)
	v, err := e.Join("alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if v.Outcome["ct"] != "full" {
		t.Errorf("initial ct = %s", v.Outcome["ct"])
	}
	if _, err := e.Join("alice"); err == nil {
		t.Error("double join accepted")
	}
	if _, err := e.Join(""); err == nil {
		t.Error("empty viewer accepted")
	}
	if _, err := e.Join("bob"); err != nil {
		t.Fatal(err)
	}
	vs := e.Viewers()
	if len(vs) != 2 || vs[0] != "alice" || vs[1] != "bob" {
		t.Errorf("Viewers = %v", vs)
	}
	if _, err := e.Leave("carol"); err == nil {
		t.Error("leave of non-member accepted")
	}
	changed, err := e.Leave("bob")
	if err != nil || changed {
		t.Errorf("Leave(bob) = %v, %v; no choices so no change expected", changed, err)
	}
}

func TestChoicePropagatesToAllViewers(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	e.Join("bob")
	// Alice asks for the segmented CT: the author's preferences hide the
	// X-ray for everyone.
	v, err := e.Choice("alice", "ct", "segmented")
	if err != nil {
		t.Fatalf("Choice: %v", err)
	}
	if v.Outcome["ct"] != "segmented" || v.Outcome["xray"] != "hidden" {
		t.Errorf("alice view = %v", v.Outcome)
	}
	bobView, err := e.ViewFor("bob")
	if err != nil {
		t.Fatal(err)
	}
	if bobView.Outcome["ct"] != "segmented" || bobView.Outcome["xray"] != "hidden" {
		t.Errorf("bob view = %v — choice did not propagate", bobView.Outcome)
	}
	views, err := e.Views()
	if err != nil || len(views) != 2 {
		t.Fatalf("Views: %v, %v", views, err)
	}
}

func TestChoiceValidation(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	if _, err := e.Choice("ghost", "ct", "full"); err == nil {
		t.Error("non-member choice accepted")
	}
	if _, err := e.Choice("alice", "nosuch", "full"); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := e.Choice("alice", "ct", "nosuch"); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestChoiceRetraction(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	if _, err := e.Choice("alice", "ct", "hidden"); err != nil {
		t.Fatal(err)
	}
	v, _ := e.ViewFor("alice")
	if v.Outcome["ct"] != "hidden" {
		t.Fatal("choice not applied")
	}
	// Empty value retracts: back to the author's optimum.
	v, err := e.Choice("alice", "ct", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome["ct"] != "full" {
		t.Errorf("after retraction ct = %s", v.Outcome["ct"])
	}
}

func TestLeaveRetractsChoices(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	e.Join("bob")
	e.Choice("alice", "ct", "hidden")
	bobView, _ := e.ViewFor("bob")
	if bobView.Outcome["ct"] != "hidden" {
		t.Fatal("choice not shared")
	}
	changed, err := e.Leave("alice")
	if err != nil || !changed {
		t.Fatalf("Leave = %v, %v; want changed=true", changed, err)
	}
	bobView, _ = e.ViewFor("bob")
	if bobView.Outcome["ct"] != "full" {
		t.Errorf("alice's choice survived her departure: ct=%s", bobView.Outcome["ct"])
	}
}

func TestSharedOperation(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	e.Join("bob")
	name, err := e.Operation("alice", "ct", "zoom", "full", false)
	if err != nil {
		t.Fatalf("Operation: %v", err)
	}
	bobView, err := e.ViewFor("bob")
	if err != nil {
		t.Fatal(err)
	}
	if bobView.Outcome[name] != cpnet.OpApplied {
		t.Errorf("shared operation invisible to bob: %v", bobView.Outcome[name])
	}
}

func TestPrivateOperationIsolation(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	e.Join("bob")
	name, err := e.Operation("alice", "ct", "segmentation", "full", true)
	if err != nil {
		t.Fatalf("private Operation: %v", err)
	}
	aliceView, _ := e.ViewFor("alice")
	if aliceView.Outcome[name] != cpnet.OpApplied {
		t.Errorf("alice does not see her private operation: %v", aliceView.Outcome[name])
	}
	bobView, _ := e.ViewFor("bob")
	if _, leaked := bobView.Outcome[name]; leaked {
		t.Error("bob sees alice's private operation")
	}
	// Alice can pin her private variable through Choice.
	v, err := e.Choice("alice", name, cpnet.OpFlat)
	if err != nil {
		t.Fatalf("choice on private variable: %v", err)
	}
	if v.Outcome[name] != cpnet.OpFlat {
		t.Errorf("private pin not honored: %v", v.Outcome[name])
	}
	// Bob cannot pin alice's private variable.
	if _, err := e.Choice("bob", name, cpnet.OpFlat); err == nil {
		t.Error("bob pinned alice's private variable")
	}
	if _, err := e.Operation("ghost", "ct", "zoom", "full", true); err == nil {
		t.Error("non-member operation accepted")
	}
}

// TestPrivateChoiceStaysPrivate: two viewers make the same private
// operation, so their private variables share a name. A pin or a
// retraction by one is their own evidence and moves nobody else's view;
// leaving takes only the leaver's pins.
func TestPrivateChoiceStaysPrivate(t *testing.T) {
	e := testEngine(t)
	for _, v := range []string{"c", "d", "x"} {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
	name, err := e.Operation("c", "ct", "zoom", "full", true)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.Operation("d", "ct", "zoom", "full", true); err != nil || again != name {
		t.Fatalf("d's private zoom: %q, %v", again, err)
	}
	sees := func(viewer string) string {
		t.Helper()
		v, err := e.ViewFor(viewer)
		if err != nil {
			t.Fatal(err)
		}
		return v.Outcome[name]
	}
	if got := sees("c"); got != cpnet.OpApplied {
		t.Fatalf("c sees %s=%q before any pin, want applied", name, got)
	}
	if _, err := e.Choice("d", name, cpnet.OpFlat); err != nil {
		t.Fatal(err)
	}
	if got := sees("c"); got != cpnet.OpApplied {
		t.Errorf("d's private pin flipped c's view to %q", got)
	}
	if got := sees("d"); got != cpnet.OpFlat {
		t.Errorf("d's own pin is not honoured: %q", got)
	}
	if _, ok := e.Choices()[name]; ok {
		t.Errorf("a private pin entered the shared evidence: %v", e.Choices())
	}
	if _, err := e.Choice("c", name, cpnet.OpFlat); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Choice("d", name, ""); err != nil {
		t.Fatal(err)
	}
	if got, gotD := sees("c"), sees("d"); got != cpnet.OpFlat || gotD != cpnet.OpApplied {
		t.Errorf("after d retracted: c sees %q (pinned flat), d %q (unpinned, applied)", got, gotD)
	}
	if _, err := e.Choice("x", name, cpnet.OpFlat); err == nil {
		t.Error("a viewer without the private variable pinned it")
	}
	if _, err := e.Choice("c", name, "half"); err == nil {
		t.Error("a private pin outside {applied, flat} accepted")
	}
	changed, err := e.Leave("d")
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("d leaving changed the shared presentation, though d pinned nothing shared")
	}
	if got := sees("c"); got != cpnet.OpFlat {
		t.Errorf("d leaving moved c's private pin: %q", got)
	}
}

// TestPrivateOperationOnRemovedComponent: removing a component drops the
// private variables made on it, their private descendants and their
// pins, as the document drops its shared operation variables; the viewer
// keeps being served, and may make the operation again on a component of
// the same name.
func TestPrivateOperationOnRemovedComponent(t *testing.T) {
	e := testEngine(t)
	for _, v := range []string{"c", "d"} {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
	zoom, err := e.Operation("c", "ct", "zoom", "full", true)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := e.Operation("c", zoom, "grid", cpnet.OpApplied, true)
	if err != nil {
		t.Fatal(err)
	}
	xray, err := e.Operation("c", "xray", "zoom", "full", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Choice("c", zoom, cpnet.OpFlat); err != nil {
		t.Fatal(err)
	}
	if err := e.EditDocument(func(d *document.Document) error { return d.RemoveComponent("ct") }); err != nil {
		t.Fatal(err)
	}
	v, err := e.ViewFor("c")
	if err != nil {
		t.Fatalf("c's view after ct was removed: %v", err)
	}
	for _, gone := range []string{"ct", zoom, grid} {
		if _, ok := v.Outcome[gone]; ok {
			t.Errorf("c still sees %s: %v", gone, v.Outcome)
		}
	}
	if _, ok := v.Outcome[xray]; !ok {
		t.Errorf("the private variable on xray was dropped too: %v", v.Outcome)
	}
	if _, err := e.Solved("c"); err != nil {
		t.Errorf("c's solved view after ct was removed: %v", err)
	}
	if _, err := e.Choice("c", zoom, cpnet.OpFlat); err == nil {
		t.Error("a pin on a dropped private variable accepted")
	}
	// The component comes back; the old pin does not.
	err = e.EditDocument(func(d *document.Document) error {
		return d.AddComponent("imaging", &document.Component{
			Name: "ct",
			Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage},
				{Name: "hidden", Kind: document.KindHidden},
			},
		}, nil, []string{"full", "hidden"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.Operation("c", "ct", "zoom", "full", true); err != nil || again != zoom {
		t.Fatalf("zoom again: %q, %v", again, err)
	}
	if v, err := e.ViewFor("c"); err != nil || v.Outcome[zoom] != cpnet.OpApplied {
		t.Errorf("c sees %s=%q (%v) after making it again, want applied: the dropped pin came back", zoom, v.Outcome[zoom], err)
	}
}

// TestSharedOperationSupersedesPrivate: a shared operation of the name a
// viewer made privately replaces the private one, pin and all.
func TestSharedOperationSupersedesPrivate(t *testing.T) {
	e := testEngine(t)
	for _, v := range []string{"c", "d"} {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
	name, err := e.Operation("c", "ct", "zoom", "full", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Choice("c", name, cpnet.OpFlat); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Operation("d", "ct", "zoom", "full", false); err != nil {
		t.Fatal(err)
	}
	views, err := e.Views()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"c", "d"} {
		if got := views[v].Outcome[name]; got != cpnet.OpApplied {
			t.Errorf("%s sees the shared %s=%q, want applied", v, name, got)
		}
	}
}

func TestChoicesSnapshot(t *testing.T) {
	e := testEngine(t)
	e.Join("alice")
	e.Choice("alice", "ct", "segmented")
	c := e.Choices()
	if c["ct"] != "segmented" {
		t.Errorf("Choices = %v", c)
	}
	c["ct"] = "mutated"
	c2 := e.Choices()
	if c2["ct"] != "segmented" {
		t.Error("Choices returned shared state")
	}
}

func TestBandwidthTuning(t *testing.T) {
	doc, err := workload.MedicalRecord("rec-bw", 2)
	if err != nil {
		t.Fatal(err)
	}
	err = AddBandwidthTuning(doc, map[string]BandwidthTemplate{
		"ct": {
			Low:    []string{"lowres", "hidden", "segmented", "full"},
			Medium: []string{"lowres", "full", "segmented", "hidden"},
			High:   []string{"full", "segmented", "lowres", "hidden"},
		},
	})
	if err != nil {
		t.Fatalf("AddBandwidthTuning: %v", err)
	}
	e, err := NewEngine(doc)
	if err != nil {
		t.Fatal(err)
	}
	e.Join("alice")
	// Default environment assumes high bandwidth → full CT.
	v, _ := e.ViewFor("alice")
	if v.Outcome["ct"] != "full" {
		t.Errorf("high-bandwidth ct = %s", v.Outcome["ct"])
	}
	// The link degrades: the engine pins the measured level.
	if err := e.SetEnvironment(BandwidthVariable, BandwidthLow); err != nil {
		t.Fatal(err)
	}
	v, _ = e.ViewFor("alice")
	if v.Outcome["ct"] != "lowres" {
		t.Errorf("low-bandwidth ct = %s", v.Outcome["ct"])
	}
	// Environment pins survive viewers leaving.
	e.Join("bob")
	e.Leave("alice")
	v, _ = e.ViewFor("bob")
	if v.Outcome["ct"] != "lowres" {
		t.Errorf("environment pin lost on leave: ct = %s", v.Outcome["ct"])
	}
	// Clearing the environment restores the author's optimism.
	if err := e.SetEnvironment(BandwidthVariable, ""); err != nil {
		t.Fatal(err)
	}
	v, _ = e.ViewFor("bob")
	if v.Outcome["ct"] != "full" {
		t.Errorf("after clearing environment ct = %s", v.Outcome["ct"])
	}
}

func TestBandwidthTuningValidation(t *testing.T) {
	doc, _ := workload.MedicalRecord("rec-bwv", 3)
	if err := AddBandwidthTuning(doc, nil); err == nil {
		t.Error("empty templates accepted")
	}
	if err := AddBandwidthTuning(doc, map[string]BandwidthTemplate{
		"nosuch": {Low: []string{"a"}, Medium: []string{"a"}, High: []string{"a"}},
	}); err == nil {
		t.Error("unknown component accepted")
	}
	if err := AddBandwidthTuning(doc, map[string]BandwidthTemplate{
		"imaging": {Low: []string{"shown", "hidden"}, Medium: []string{"shown", "hidden"}, High: []string{"shown", "hidden"}},
	}); err == nil {
		t.Error("composite component accepted")
	}
	if err := AddBandwidthTuning(doc, map[string]BandwidthTemplate{
		"ct": {Low: []string{"full"}, Medium: []string{"full"}, High: []string{"full"}},
	}); err == nil {
		t.Error("short template accepted")
	}
	ok := map[string]BandwidthTemplate{
		"ct": {
			Low:    []string{"lowres", "hidden", "segmented", "full"},
			Medium: []string{"lowres", "full", "segmented", "hidden"},
			High:   []string{"full", "segmented", "lowres", "hidden"},
		},
	}
	if err := AddBandwidthTuning(doc, ok); err != nil {
		t.Fatal(err)
	}
	if err := AddBandwidthTuning(doc, ok); err == nil {
		t.Error("double tuning accepted")
	}
	e, _ := NewEngine(doc)
	if err := e.SetEnvironment("nosuch", "x"); err == nil {
		t.Error("unknown environment variable accepted")
	}
	if err := e.SetEnvironment(BandwidthVariable, "nosuch"); err == nil {
		t.Error("unknown environment value accepted")
	}
}
