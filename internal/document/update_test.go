package document

import (
	"reflect"
	"testing"

	"mmconf/internal/cpnet"
)

func TestAddComponent(t *testing.T) {
	d := medicalRecord(t)
	mri := &Component{
		Name:  "mri",
		Label: "Brain MRI",
		Presentations: []Presentation{
			{Name: "full", Kind: KindImage, ObjectID: 200, Bytes: 1 << 20},
			{Name: "hidden", Kind: KindHidden},
		},
	}
	err := d.AddComponent("imaging", mri, []string{"ct"}, []string{"hidden", "full"})
	if err != nil {
		t.Fatalf("AddComponent: %v", err)
	}
	if err := d.Prefs.Validate(); err != nil {
		t.Fatalf("network invalid after add: %v", err)
	}
	if len(d.Components()) != 7 {
		t.Errorf("component count = %d, want 7", len(d.Components()))
	}
	v, err := d.DefaultPresentation()
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome["mri"] != "hidden" || v.Visible["mri"] {
		t.Errorf("new component default = %s, visible=%v", v.Outcome["mri"], v.Visible["mri"])
	}
	// The author can refine the new component's CPT afterwards.
	mustOK(t, d.Prefs.SetPreference("mri", cpnet.Outcome{"ct": "hidden"}, []string{"full", "hidden"}))
	v, _ = d.ReconfigPresentation(cpnet.Outcome{"ct": "hidden"})
	if v.Outcome["mri"] != "full" {
		t.Errorf("refined CPT not honored: mri=%s", v.Outcome["mri"])
	}
}

func TestAddComponentErrors(t *testing.T) {
	d := medicalRecord(t)
	good := func() *Component {
		return &Component{Name: "new", Presentations: []Presentation{{Name: "p"}}}
	}
	if err := d.AddComponent("imaging", nil, nil, nil); err == nil {
		t.Error("nil component accepted")
	}
	if err := d.AddComponent("imaging", &Component{Name: "a/b", Presentations: []Presentation{{Name: "p"}}}, nil, []string{"p"}); err == nil {
		t.Error("slash name accepted")
	}
	if err := d.AddComponent("imaging", &Component{Name: "ct", Presentations: []Presentation{{Name: "p"}}}, nil, []string{"p"}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := d.AddComponent("nosuch", good(), nil, []string{"p"}); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := d.AddComponent("ct", good(), nil, []string{"p"}); err == nil {
		t.Error("primitive parent accepted")
	}
	if err := d.AddComponent("imaging", &Component{Name: "new"}, nil, nil); err == nil {
		t.Error("presentation-less component accepted")
	}
	sub := &Component{Name: "new", Children: []*Component{{Name: "inner", Presentations: []Presentation{{Name: "p"}}}}}
	if err := d.AddComponent("imaging", sub, nil, nil); err == nil {
		t.Error("composite subtree accepted")
	}
	// Bad network wiring must leave both tree and network unchanged.
	before := len(d.Components())
	if err := d.AddComponent("imaging", good(), []string{"nosuch"}, []string{"p"}); err == nil {
		t.Error("unknown net parent accepted")
	}
	if len(d.Components()) != before {
		t.Error("failed add mutated the tree")
	}
	if err := d.Prefs.Validate(); err != nil {
		t.Errorf("failed add corrupted the network: %v", err)
	}
}

func TestRemoveComponent(t *testing.T) {
	d := medicalRecord(t)
	if err := d.RemoveComponent("xray"); err != nil {
		t.Fatalf("RemoveComponent: %v", err)
	}
	if _, err := d.Component("xray"); err == nil {
		t.Error("xray still in tree")
	}
	if d.Prefs.HasVariable("xray") {
		t.Error("xray still in network")
	}
	if err := d.Prefs.Validate(); err != nil {
		t.Fatalf("network invalid after removal: %v", err)
	}
	v, err := d.DefaultPresentation()
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome["ct"] != "full" {
		t.Errorf("remaining preferences disturbed: ct=%s", v.Outcome["ct"])
	}
}

func TestRemoveCompositeSubtree(t *testing.T) {
	d := medicalRecord(t)
	if err := d.RemoveComponent("imaging"); err != nil {
		t.Fatalf("RemoveComponent(imaging): %v", err)
	}
	for _, name := range []string{"imaging", "ct", "xray"} {
		if d.Prefs.HasVariable(name) {
			t.Errorf("%s survived subtree removal", name)
		}
	}
	if err := d.Prefs.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	if len(d.Components()) != 3 { // record, voice, labs
		t.Errorf("components = %d, want 3", len(d.Components()))
	}
}

func TestRemoveComponentErrors(t *testing.T) {
	d := medicalRecord(t)
	if err := d.RemoveComponent("record"); err == nil {
		t.Error("root removal accepted")
	}
	if err := d.RemoveComponent("nosuch"); err == nil {
		t.Error("unknown component accepted")
	}
}

func TestRemoveComponentDropsDerivedVariables(t *testing.T) {
	d := medicalRecord(t)
	name, err := d.ApplyOperation("ct", "segmentation", "segmented")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Prefs.HasVariable(name) {
		t.Fatal("derived variable missing")
	}
	if err := d.RemoveComponent("ct"); err != nil {
		t.Fatalf("RemoveComponent: %v", err)
	}
	if d.Prefs.HasVariable(name) {
		t.Error("derived variable survived its component")
	}
	if err := d.Prefs.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
}

func TestApplyOperationShared(t *testing.T) {
	d := medicalRecord(t)
	name, err := d.ApplyOperation("ct", "zoom", "full")
	if err != nil {
		t.Fatalf("ApplyOperation: %v", err)
	}
	v, err := d.DefaultPresentation()
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome[name] != cpnet.OpApplied {
		t.Errorf("zoom under ct=full is %q, want applied", v.Outcome[name])
	}
	v, _ = d.ReconfigPresentation(cpnet.Outcome{"ct": "hidden"})
	if v.Outcome[name] != cpnet.OpFlat {
		t.Errorf("zoom under ct=hidden is %q, want flat", v.Outcome[name])
	}
	if _, err := d.ApplyOperation("nosuch", "zoom", "full"); err == nil {
		t.Error("unknown component accepted")
	}
}

// privateView solves d under evidence and extends the view by ov's
// private variables, pinned by pins: the one path a viewer's view takes.
func privateView(t *testing.T, d *Document, ov *cpnet.Overlay, evidence, pins cpnet.Outcome) View {
	t.Helper()
	s, err := d.Schema()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.Network().Evidence(evidence, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Solve(ev)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := s.WithPrivate(ov)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Empty() {
		if ext != s {
			t.Error("an empty overlay's schema is not the document's")
		}
		return base.View()
	}
	v, err := ext.Derive(base, pins)
	if err != nil {
		t.Fatal(err)
	}
	return v.View()
}

func TestApplyOperationPrivate(t *testing.T) {
	d := medicalRecord(t)
	alice := d.NewOverlay()
	bob := d.NewOverlay()
	name, err := d.ApplyOperationPrivate(alice, "ct", "segmentation", "full")
	if err != nil {
		t.Fatalf("ApplyOperationPrivate: %v", err)
	}
	if d.Prefs.HasVariable(name) {
		t.Error("private operation leaked into the shared network")
	}
	if av := privateView(t, d, alice, nil, nil); av.Outcome[name] != cpnet.OpApplied {
		t.Errorf("alice sees %s=%q", name, av.Outcome[name])
	}
	if _, leaked := privateView(t, d, bob, nil, nil).Outcome[name]; leaked {
		t.Error("bob sees alice's private operation")
	}
	// An empty overlay's view is the shared reconfiguration.
	nv := privateView(t, d, bob, cpnet.Outcome{"ct": "hidden"}, nil)
	if nv.Outcome["ct"] != "hidden" {
		t.Errorf("empty-overlay view ignored choices: %v", nv.Outcome)
	}
	// An overlay of a different document is rejected.
	other := medicalRecord(t)
	if _, err := d.ApplyOperationPrivate(other.NewOverlay(), "ct", "zoom", "full"); err == nil {
		t.Error("foreign overlay accepted for private operation")
	}
}

// TestPrivateViewIsTheSharedOperations: a viewer's view with a private
// operation is, under any evidence, the view every viewer would get had
// the operation been made shared — stacked operations and pins on
// private variables included — and a view under the extended schema
// keeps the document's visibility.
func TestPrivateViewIsTheSharedOperations(t *testing.T) {
	priv, shared := medicalRecord(t), medicalRecord(t)
	ov := priv.NewOverlay()
	seg, err := priv.ApplyOperationPrivate(ov, "ct", "segmentation", "full")
	if err != nil {
		t.Fatal(err)
	}
	zoom, err := priv.ApplyOperationPrivate(ov, seg, "zoom", cpnet.OpApplied)
	if err != nil {
		t.Fatalf("stacked private operation: %v", err)
	}
	if _, err := shared.ApplyOperation("ct", "segmentation", "full"); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Prefs.AddOperationVariable(seg, "zoom", cpnet.OpApplied); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ evidence, pins cpnet.Outcome }{
		{nil, nil},
		{cpnet.Outcome{"ct": "hidden"}, nil},
		{cpnet.Outcome{"ct": "segmented", "xray": "icon"}, nil},
		{nil, cpnet.Outcome{seg: cpnet.OpFlat}},
		{cpnet.Outcome{"ct": "hidden"}, cpnet.Outcome{seg: cpnet.OpApplied}},
		{nil, cpnet.Outcome{zoom: cpnet.OpFlat}},
	} {
		got := privateView(t, priv, ov, tc.evidence, tc.pins)
		ev := tc.evidence.Clone()
		for k, v := range tc.pins {
			ev[k] = v
		}
		want, err := shared.ReconfigPresentation(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("under %v and %v the private view is\n%v %v\nthe shared one\n%v %v",
				tc.evidence, tc.pins, got.Outcome, got.Visible, want.Outcome, want.Visible)
		}
	}
}

// TestDeriveRefusals: a view is derived only from one under the schema
// the extension was made from, a pin names a value of the domain, and an
// overlay record the document no longer supports is refused, not
// resolved to some other variable.
func TestDeriveRefusals(t *testing.T) {
	d := medicalRecord(t)
	ov := d.NewOverlay()
	name, err := d.ApplyOperationPrivate(ov, "ct", "zoom", "full")
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Schema()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := s.WithPrivate(ov)
	if err != nil {
		t.Fatal(err)
	}
	pins, _ := s.Network().Evidence(nil, nil)
	base, err := s.Solve(pins)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Schema()
	if err != nil {
		t.Fatal(err)
	}
	elsewhere, err := again.Solve(pins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ext.Derive(elsewhere, nil); err == nil {
		t.Error("derived from a view under another schema")
	}
	if _, err := s.Derive(base, nil); err == nil {
		t.Error("derived under a schema that extends nothing")
	}
	if _, err := ext.Derive(base, cpnet.Outcome{name: "half"}); err == nil {
		t.Error("a pin outside {applied, flat} accepted")
	}
	if err := d.RemoveComponent("ct"); err != nil {
		t.Fatal(err)
	}
	s, err = d.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WithPrivate(ov); err == nil {
		t.Error("resolved a private variable whose parent was removed")
	}
	if dropped := ov.Prune(); len(dropped) != 1 || dropped[0] != name {
		t.Errorf("pruned %v, want [%s]", dropped, name)
	}
	if ext, err := s.WithPrivate(ov); err != nil || ext != s {
		t.Errorf("the pruned overlay resolves to %p, %v; the document's schema is %p", ext, err, s)
	}
}
