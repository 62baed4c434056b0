package document

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/wire"
)

// medicalRecord builds the running example of the paper: a patient file
// with a CT image, a correlated X-ray, a voice fragment of expertise, and
// textual test results, under an imaging composite. The author's
// preferences encode the paper's motivating statement: "the author may
// prefer to present a CT image together with a voice fragment ... if a CT
// image is presented, then a correlated X-ray image is preferred to be
// hidden, or presented as a small icon".
func medicalRecord(t testing.TB) *Document {
	t.Helper()
	root := &Component{
		Name:  "record",
		Label: "Medical record 4711",
		Children: []*Component{
			{
				Name:  "imaging",
				Label: "Imaging studies",
				Children: []*Component{
					{
						Name:  "ct",
						Label: "Abdominal CT",
						Presentations: []Presentation{
							{Name: "full", Kind: KindImage, ObjectID: 101, Bytes: 512 << 10},
							{Name: "segmented", Kind: KindSegmentedImage, ObjectID: 102, Bytes: 600 << 10},
							{Name: "hidden", Kind: KindHidden},
						},
					},
					{
						Name:  "xray",
						Label: "Chest X-ray",
						Presentations: []Presentation{
							{Name: "full", Kind: KindImage, ObjectID: 103, Bytes: 256 << 10},
							{Name: "icon", Kind: KindIcon, ObjectID: 103, Bytes: 4 << 10},
							{Name: "hidden", Kind: KindHidden},
						},
					},
				},
			},
			{
				Name:  "voice",
				Label: "Radiologist commentary",
				Presentations: []Presentation{
					{Name: "audio", Kind: KindAudio, ObjectID: 104, Bytes: 300 << 10},
					{Name: "transcript", Kind: KindAudioTranscript, Inline: []byte("no acute findings"), Bytes: 64},
					{Name: "hidden", Kind: KindHidden},
				},
			},
			{
				Name:  "labs",
				Label: "Test results",
				Presentations: []Presentation{
					{Name: "table", Kind: KindTable, Inline: []byte("WBC 7.2\nHGB 13.9"), Bytes: 128},
					{Name: "hidden", Kind: KindHidden},
				},
			},
		},
	}
	d, err := New("rec-4711", "Patient 4711", root)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := d.Prefs
	// imaging shown unconditionally; CT full preferred.
	mustOK(t, n.SetUnconditional("record", []string{VisShown, VisHidden}))
	mustOK(t, n.SetUnconditional("imaging", []string{VisShown, VisHidden}))
	mustOK(t, n.SetUnconditional("ct", []string{"full", "segmented", "hidden"}))
	// X-ray depends on CT: hidden/icon when CT is presented, full otherwise.
	mustOK(t, n.SetParents("xray", []string{"ct"}))
	mustOK(t, n.SetPreference("xray", cpnet.Outcome{"ct": "full"}, []string{"icon", "hidden", "full"}))
	mustOK(t, n.SetPreference("xray", cpnet.Outcome{"ct": "segmented"}, []string{"hidden", "icon", "full"}))
	mustOK(t, n.SetPreference("xray", cpnet.Outcome{"ct": "hidden"}, []string{"full", "icon", "hidden"}))
	// Voice commentary accompanies a presented CT; transcript otherwise.
	mustOK(t, n.SetParents("voice", []string{"ct"}))
	mustOK(t, n.SetPreference("voice", cpnet.Outcome{"ct": "full"}, []string{"audio", "transcript", "hidden"}))
	mustOK(t, n.SetPreference("voice", cpnet.Outcome{"ct": "segmented"}, []string{"audio", "transcript", "hidden"}))
	mustOK(t, n.SetPreference("voice", cpnet.Outcome{"ct": "hidden"}, []string{"transcript", "audio", "hidden"}))
	mustOK(t, n.SetUnconditional("labs", []string{"table", "hidden"}))
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadStructures(t *testing.T) {
	cases := []struct {
		name string
		id   string
		root *Component
	}{
		{"empty id", "", &Component{Name: "r", Presentations: []Presentation{{Name: "p"}}}},
		{"nil root", "d", nil},
		{"empty component name", "d", &Component{Name: ""}},
		{"slash in name", "d", &Component{Name: "a/b", Presentations: []Presentation{{Name: "p"}}}},
		{"primitive without presentations", "d", &Component{Name: "r"}},
		{"duplicate names", "d", &Component{Name: "r", Children: []*Component{
			{Name: "x", Presentations: []Presentation{{Name: "p"}}},
			{Name: "x", Presentations: []Presentation{{Name: "p"}}},
		}}},
		{"composite with presentations", "d", &Component{Name: "r",
			Presentations: []Presentation{{Name: "p"}},
			Children:      []*Component{{Name: "x", Presentations: []Presentation{{Name: "p"}}}}}},
		{"duplicate presentation", "d", &Component{Name: "r",
			Presentations: []Presentation{{Name: "p"}, {Name: "p"}}}},
		{"empty presentation name", "d", &Component{Name: "r",
			Presentations: []Presentation{{Name: ""}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.id, "t", c.root); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestDefaultPresentation(t *testing.T) {
	d := medicalRecord(t)
	v, err := d.DefaultPresentation()
	if err != nil {
		t.Fatalf("DefaultPresentation: %v", err)
	}
	want := cpnet.Outcome{
		"record": VisShown, "imaging": VisShown,
		"ct": "full", "xray": "icon", "voice": "audio", "labs": "table",
	}
	if v.Outcome.String() != want.String() {
		t.Fatalf("default outcome = %v, want %v", v.Outcome, want)
	}
	for _, name := range []string{"record", "imaging", "ct", "xray", "voice", "labs"} {
		if !v.Visible[name] {
			t.Errorf("%s not visible in default view", name)
		}
	}
}

func TestReconfigPresentation(t *testing.T) {
	d := medicalRecord(t)
	// Viewer hides the CT: the X-ray comes up full, commentary becomes a
	// transcript.
	v, err := d.ReconfigPresentation(cpnet.Outcome{"ct": "hidden"})
	if err != nil {
		t.Fatalf("ReconfigPresentation: %v", err)
	}
	if v.Outcome["xray"] != "full" || v.Outcome["voice"] != "transcript" {
		t.Errorf("outcome after hiding CT = %v", v.Outcome)
	}
	if v.Visible["ct"] {
		t.Error("hidden CT still visible")
	}
	// Viewer asks for the segmented CT: X-ray hides entirely.
	v, err = d.ReconfigPresentation(cpnet.Outcome{"ct": "segmented"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome["xray"] != "hidden" || v.Visible["xray"] {
		t.Errorf("xray after segmentation: value=%s visible=%v", v.Outcome["xray"], v.Visible["xray"])
	}
}

func TestCompositeHidingCascades(t *testing.T) {
	d := medicalRecord(t)
	v, err := d.ReconfigPresentation(cpnet.Outcome{"imaging": VisHidden})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"imaging", "ct", "xray"} {
		if v.Visible[name] {
			t.Errorf("%s visible although imaging group is hidden", name)
		}
	}
	// Siblings outside the hidden subtree stay visible.
	if !v.Visible["labs"] || !v.Visible["voice"] {
		t.Error("hiding imaging affected unrelated components")
	}
	// The CT variable still has a value even while invisible.
	if v.Outcome["ct"] == "" {
		t.Error("hidden subtree lost its outcome values")
	}
}

func TestVisibleComponentsAndTransferBytes(t *testing.T) {
	d := medicalRecord(t)
	v, _ := d.DefaultPresentation()
	got := strings.Join(v.VisibleComponents(), ",")
	want := "ct,imaging,labs,record,voice,xray"
	if got != want {
		t.Errorf("VisibleComponents = %s, want %s", got, want)
	}
	// full CT (512K) + icon X-ray (4K) + audio (300K) + labs (128).
	wantBytes := int64(512<<10 + 4<<10 + 300<<10 + 128)
	if b := d.TransferBytes(v); b != wantBytes {
		t.Errorf("TransferBytes = %d, want %d", b, wantBytes)
	}
	// Hiding imaging drops both image payloads.
	v, _ = d.ReconfigPresentation(cpnet.Outcome{"imaging": VisHidden})
	wantBytes = int64(300<<10 + 128)
	if b := d.TransferBytes(v); b != wantBytes {
		t.Errorf("TransferBytes without imaging = %d, want %d", b, wantBytes)
	}
}

func TestComponentAccessors(t *testing.T) {
	d := medicalRecord(t)
	if len(d.Components()) != 6 {
		t.Errorf("Components = %d, want 6", len(d.Components()))
	}
	c, err := d.Component("ct")
	if err != nil {
		t.Fatal(err)
	}
	if c.Composite() {
		t.Error("ct reported composite")
	}
	p, err := c.Presentation("segmented")
	if err != nil || p.Kind != KindSegmentedImage {
		t.Errorf("Presentation(segmented) = %+v, %v", p, err)
	}
	if _, err := c.Presentation("nosuch"); err == nil {
		t.Error("unknown presentation accepted")
	}
	if _, err := d.Component("nosuch"); err == nil {
		t.Error("unknown component accepted")
	}
	img, _ := d.Component("imaging")
	if !img.Composite() || strings.Join(img.Domain(), ",") != "shown,hidden" {
		t.Errorf("imaging domain = %v", img.Domain())
	}
}

func TestSetNetwork(t *testing.T) {
	d := medicalRecord(t)
	// A valid replacement: same variables, different preferences.
	n := d.Prefs.Clone()
	mustOK(t, n.SetUnconditional("ct", []string{"segmented", "full", "hidden"}))
	if err := d.SetNetwork(n); err != nil {
		t.Fatalf("SetNetwork: %v", err)
	}
	v, _ := d.DefaultPresentation()
	if v.Outcome["ct"] != "segmented" {
		t.Errorf("replacement network not in effect: ct=%s", v.Outcome["ct"])
	}
	// Missing component variable.
	bad := cpnet.New()
	mustOK(t, bad.AddVariable("ct", []string{"full", "segmented", "hidden"}))
	mustOK(t, bad.SetUnconditional("ct", []string{"full", "segmented", "hidden"}))
	if err := d.SetNetwork(bad); err == nil {
		t.Error("network lacking components accepted")
	}
	// Domain mismatch.
	n2 := cpnet.New()
	for _, c := range d.Components() {
		dom := c.Domain()
		if c.Name == "ct" {
			dom = []string{"full", "hidden"}
		}
		mustOK(t, n2.AddVariable(c.Name, dom))
		mustOK(t, n2.SetUnconditional(c.Name, dom))
	}
	if err := d.SetNetwork(n2); err == nil {
		t.Error("domain mismatch accepted")
	}
	// Stray non-derived variable.
	n3 := d.Prefs.Clone()
	mustOK(t, n3.AddVariable("stray", []string{"a"}))
	mustOK(t, n3.SetUnconditional("stray", []string{"a"}))
	if err := d.SetNetwork(n3); err == nil {
		t.Error("stray variable accepted")
	}
	// Invalid network.
	n4 := cpnet.New()
	mustOK(t, n4.AddVariable("x", []string{"a"}))
	if err := d.SetNetwork(n4); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	d := medicalRecord(t)
	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.ID != d.ID || back.Title != d.Title {
		t.Errorf("identity drift: %s/%s", back.ID, back.Title)
	}
	if len(back.Components()) != len(d.Components()) {
		t.Errorf("component count drift")
	}
	v1, _ := d.DefaultPresentation()
	v2, err := back.DefaultPresentation()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Outcome.String() != v2.Outcome.String() {
		t.Errorf("default view drift: %v vs %v", v1.Outcome, v2.Outcome)
	}
	ct, _ := back.Component("ct")
	p, _ := ct.Presentation("full")
	if p.ObjectID != 101 || p.Bytes != 512<<10 {
		t.Errorf("presentation payload drift: %+v", p)
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if !reflect.DeepEqual(back.Root, d.Root) {
		t.Error("component tree drift")
	}
}

// TestUnmarshalOwnsInline: a decoded document shares no memory with the
// bytes it came from — the caller's buffer may be a pooled frame or a
// cache entry that is reused.
func TestUnmarshalOwnsInline(t *testing.T) {
	data, _ := medicalRecord(t).MarshalBinary()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	labs, _ := back.Component("labs")
	if p, _ := labs.Presentation("table"); string(p.Inline) != "WBC 7.2\nHGB 13.9" {
		t.Errorf("inline payload follows the input buffer: %q", p.Inline)
	}
}

// TestUnmarshalBoundsDepth: a component tree nested past maxDepth is
// refused before the decoder's recursion can exhaust the stack.
func TestUnmarshalBoundsDepth(t *testing.T) {
	deep := func(levels int) []byte {
		c := &Component{Name: "leaf", Presentations: []Presentation{{Name: "hidden"}}}
		for i := 1; i < levels; i++ {
			c = &Component{Name: "c" + strconv.Itoa(i), Children: []*Component{c}}
		}
		return wire.MarshalBody(bodyFunc(func(e *wire.BodyEnc) { appendComponent(e, c) }))
	}
	for _, tc := range []struct {
		levels int
		ok     bool
	}{{maxDepth, true}, {maxDepth + 1, false}} {
		_, err := decodeComponent(wire.NewDec(deep(tc.levels)), 1)
		if (err == nil) != tc.ok {
			t.Errorf("%d levels: err = %v, want ok=%v", tc.levels, err, tc.ok)
		}
	}
}

// bodyFunc writes a body field by field.
type bodyFunc func(e *wire.BodyEnc)

func (f bodyFunc) AppendBody(e *wire.BodyEnc) { f(e) }

// FuzzDocumentDecode throws arbitrary bytes at the document decoder: a
// client decodes the document a join hands it, and the store decodes the
// ones it holds. A body that decodes must re-encode to bytes that decode
// to the same document, and its default view must solve.
func FuzzDocumentDecode(f *testing.F) {
	data, _ := medicalRecord(f).MarshalBinary()
	f.Add(data)
	small, err := New("d", "", &Component{Name: "c", Presentations: []Presentation{{Name: "text", Kind: KindText, Inline: []byte("x")}}})
	if err != nil {
		f.Fatal(err)
	}
	data, _ = small.MarshalBinary()
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, _ := d.MarshalBinary()
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, out) {
			t.Fatal("re-encode is not a fixed point")
		}
		if _, err := d.DefaultPresentation(); err != nil {
			t.Fatalf("a decoded document has no default view: %v", err)
		}
	})
}

func TestMediaKindString(t *testing.T) {
	if KindSegmentedImage.String() != "segmented-image" {
		t.Errorf("KindSegmentedImage = %s", KindSegmentedImage)
	}
	if !strings.HasPrefix(MediaKind(99).String(), "MediaKind(") {
		t.Errorf("unknown kind = %s", MediaKind(99))
	}
}
