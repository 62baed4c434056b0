package room

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/wire"
)

// codecEvents is one event of every kind, each with the fields its kind
// carries set to something a zero value would not reproduce.
func codecEvents() []Event {
	note := image.Annotation{ID: 7, Kind: 1, X1: 10, Y1: -3, X2: 200, Y2: 140, Text: "lesion?", Intensity: 0.75}
	hits := []voice.Hit{{Word: "tumor", Start: 100, End: 160, Score: 0.93}, {Word: "tumor", Start: 8000, End: 8070, Score: -1.25}}
	events := []Event{
		{Kind: EvJoin, Actor: "dr-adams"},
		{Kind: EvLeave, Actor: "dr-adams"},
		{Kind: EvChoice, Actor: "dr-adams", Variable: "ct", Value: "segmented"},
		{Kind: EvOperation, Actor: "dr-baker", Component: "ct", Op: "zoom", ActiveWhen: "full", DerivedVar: "ct.zoom", Private: true},
		{Kind: EvAnnotate, Actor: "dr-baker", ObjectID: 12, Annotation: note},
		{Kind: EvDeleteAnnotation, Actor: "dr-baker", ObjectID: 12, AnnotationID: -2},
		{Kind: EvFreeze, Actor: "dr-adams", ObjectID: 1 << 40},
		{Kind: EvRelease, Actor: "dr-adams", ObjectID: 1 << 40},
		{Kind: EvPresentation, Actor: "dr-adams", Variable: "ct", Value: "segmented", Resync: true,
			Base: 7, View: 9, Changes: []ViewChange{
				{Tag: ChangeSet, Name: "ct", Value: "segmented"},
				{Tag: ChangeShow, Name: "ct"},
				{Tag: ChangeHide, Name: "xray"},
				{Tag: ChangeDropVariable, Name: "ct.zoom"},
				{Tag: ChangeDropComponent, Name: "minutes-1"},
			}},
		{Kind: EvWordSearch, Actor: "dr-baker", Keyword: "tumor", Hits: hits},
		{Kind: EvSpeakerSearch, Actor: "dr-baker", Keyword: "dr-chen", Hits: hits[:1]},
		{Kind: EvChat, Actor: "dr-adams", Text: "look at layer two"},
		{Kind: EvBroadcastStart, Actor: "dr-adams"},
		{Kind: EvBroadcastStop, Actor: "dr-adams"},
		{Kind: EvShutdown, Actor: serverActor},
	}
	for i := range events {
		if events[i].Kind != EventKind(i) {
			panic("codecEvents skips kind " + EventKind(i).String())
		}
		events[i].Seq, events[i].Room = uint64(300+i), "consult"
	}
	return events
}

// TestEventCodec round-trips every kind of event and refuses every damaged
// form of its encoding: each strict prefix, and one byte too many.
func TestEventCodec(t *testing.T) {
	for _, ev := range codecEvents() {
		data := wire.MarshalBody(&ev)
		// A decode target that went through a fan-out must not keep the
		// other event's shared encoding.
		out := Event{shared: new(sharedEnc)}
		if err := wire.DecodeBodyBytes(data, &out); err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		if !reflect.DeepEqual(ev, out) {
			t.Errorf("%v round trip:\n in: %+v\nout: %+v", ev.Kind, ev, out)
		}
		for i := range data {
			if err := wire.DecodeBodyBytes(data[:i], new(Event)); err == nil {
				t.Errorf("%v: the first %d of %d bytes decode without error", ev.Kind, i, len(data))
			}
		}
		if err := wire.DecodeBodyBytes(append(data, 0), new(Event)); err == nil {
			t.Errorf("%v: a trailing byte decodes without error", ev.Kind)
		}
	}
}

// solvedView solves a small record — components ct, xray, voice and
// extra under one composite, with the derived variables ops names added
// as shared operations on ct — under the evidence.
func solvedView(t *testing.T, extra string, ops []string, evidence cpnet.Outcome) *document.Solved {
	t.Helper()
	leaf := func(name string, values ...string) *document.Component {
		c := &document.Component{Name: name}
		for _, v := range values {
			c.Presentations = append(c.Presentations, document.Presentation{Name: v})
		}
		return c
	}
	doc, err := document.New("rec", "", &document.Component{Name: "record", Children: []*document.Component{
		leaf("ct", "full", "segmented", "hidden"), leaf("xray", "full", "icon", "hidden"),
		leaf("voice", "audio", "hidden"), leaf(extra, "text", "hidden"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if _, err := doc.ApplyOperation("ct", op, "full"); err != nil {
			t.Fatal(err)
		}
	}
	s, err := doc.Schema()
	if err != nil {
		t.Fatal(err)
	}
	pins, err := s.Network().Evidence(evidence, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Solve(pins)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPresentationEncodesWhatDiffers: a presentation made in the room
// points at two solved views, and what crosses is the run that turns the
// held one into the new one — every kind of entry, by index under one
// schema and by name across two; made against the empty view the run is
// the whole view. The event as decoded carries no map, and re-encodes to
// the same bytes.
func TestPresentationEncodesWhatDiffers(t *testing.T) {
	held := viewRef{7, solvedView(t, "minutes-1", []string{"zoom"},
		cpnet.Outcome{"ct": "full", "xray": "icon", "ct/zoom": "applied"})}
	next := viewRef{9, solvedView(t, "notes", nil, cpnet.Outcome{"ct": "segmented", "xray": "hidden"})}
	sameSchema := viewRef{5, solvedView(t, "notes", nil, cpnet.Outcome{"ct": "hidden", "xray": "hidden"})}
	for _, tc := range []struct {
		name    string
		from    viewRef
		entries int
	}{
		// ct, xray, +notes, -minutes-1, -ct/zoom; xray hidden, +notes, -minutes-1
		{"across schemas", held, 8},
		{"one schema", sameSchema, 2}, // ct; ct shown
		{"whole", viewRef{}, 10},
		{"nothing", viewRef{7, next.view}, 0},
	} {
		ev := Event{Seq: 41, Room: "consult", Actor: "dr-adams", Kind: EvPresentation}
		ev.setView(tc.from, next)
		data := wire.MarshalBody(&ev)
		var out Event
		if err := wire.DecodeBodyBytes(data, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Base != tc.from.id || out.View != 9 || len(out.Changes) != tc.entries || out.Outcome != nil || out.Visible != nil {
			t.Errorf("%s: decoded base %d view %d with %d entries (want %d) and maps %v %v",
				tc.name, out.Base, out.View, len(out.Changes), tc.entries, out.Outcome, out.Visible)
		}
		outcome, visible := cpnet.Outcome{}, map[string]bool{}
		if tc.from.view != nil {
			from := tc.from.view.View()
			outcome, visible = from.Outcome, from.Visible
		}
		for _, c := range out.Changes {
			c.Apply(outcome, visible)
		}
		if want := next.view.View(); !reflect.DeepEqual(outcome, want.Outcome) || !reflect.DeepEqual(visible, want.Visible) {
			t.Errorf("%s: applied to the held view the run gives %v %v, want %v %v", tc.name, outcome, visible, want.Outcome, want.Visible)
		}
		if again := wire.MarshalBody(&out); len(again) != len(data) {
			t.Errorf("%s: the decoded event re-encodes to %d bytes, read %d", tc.name, len(again), len(data))
		}
		if (ev.changeBytes == 0) != (tc.entries == 0) {
			t.Errorf("%s: the push budget is charged %d bytes for %d entries", tc.name, ev.changeBytes, tc.entries)
		}
	}
}

// TestHandBuiltWholeViewEncodes: an event made outside the room carries
// a whole view as maps, and encodes to the run the room makes of the same
// view against the empty one — the same bytes, up to the order of the
// entries.
func TestHandBuiltWholeViewEncodes(t *testing.T) {
	v := solvedView(t, "notes", []string{"zoom"}, cpnet.Outcome{"xray": "icon"})
	maps := v.View()
	made := Event{Seq: 41, Room: "consult", Actor: "dr-adams", Kind: EvPresentation}
	made.setView(viewRef{}, viewRef{3, v})
	hand := Event{Seq: 41, Room: "consult", Actor: "dr-adams", Kind: EvPresentation, View: 3,
		Outcome: maps.Outcome, Visible: maps.Visible}
	a, b := wire.MarshalBody(&made), wire.MarshalBody(&hand)
	if len(a) != len(b) {
		t.Fatalf("the hand-built whole view encodes to %d bytes, the room's to %d", len(b), len(a))
	}
	var da, db Event
	if err := wire.DecodeBodyBytes(a, &da); err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeBodyBytes(b, &db); err != nil {
		t.Fatal(err)
	}
	sortChanges := func(cs []ViewChange) {
		slices.SortFunc(cs, func(x, y ViewChange) int { return cmp.Or(cmp.Compare(x.Name, y.Name), cmp.Compare(x.Tag, y.Tag)) })
	}
	sortChanges(da.Changes)
	sortChanges(db.Changes)
	if !reflect.DeepEqual(da, db) {
		t.Errorf("hand-built and room-made whole views differ:\n%+v\n%+v", db, da)
	}
}

// TestChoiceEventBytes pins the size of the event every choice fans out:
// each field the codec carries costs every member of every room a byte or
// more per event, whether the kind uses it or not. 61 since a
// presentation's part became two view ids and a count (it was two counts).
func TestChoiceEventBytes(t *testing.T) {
	ev := Event{Seq: 41, Room: "consult", Actor: "dr-adams", Kind: EvChoice, Variable: "ct", Value: "segmented"}
	if got := len(wire.MarshalBody(&ev)); got != 61 {
		t.Errorf("the EvChoice encodes to %d bytes, want 61: Event.AppendBody gained or lost a field", got)
	}
}

// FuzzEventDecode feeds the client's push decoder arbitrary bytes: it must
// refuse or accept without panicking, and what it accepts must re-encode
// to bytes it accepts again, at a fixed point.
func FuzzEventDecode(f *testing.F) {
	for _, ev := range codecEvents() {
		f.Add(wire.MarshalBody(&ev))
	}
	// Hostile lengths: uvarints claiming far more than the input holds.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	// The change run: one entry of each tag alone, an unknown tag, a base
	// with an empty run, and a count beyond the input.
	pres := Event{Seq: 9, Room: "r", Kind: EvPresentation, Base: 3, View: 4}
	for tag := ChangeSet; tag <= ChangeDropComponent+1; tag++ {
		pres.Changes = []ViewChange{{Tag: tag, Name: "ct", Value: "full"}}
		f.Add(wire.MarshalBody(&pres))
	}
	pres.Changes = nil
	empty := wire.MarshalBody(&pres)
	f.Add(empty)
	// The run's count is the byte after the two ids; everything after it
	// is zero fields, so raising it claims entries the input cannot hold.
	claim := append([]byte(nil), empty...)
	claim[bytes.LastIndex(claim, []byte{3, 4, 0})+2] = 0x7F
	f.Add(claim)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		if err := wire.DecodeBodyBytes(data, &ev); err != nil {
			return
		}
		out := wire.MarshalBody(&ev)
		var again Event
		if err := wire.DecodeBodyBytes(out, &again); err != nil {
			t.Fatalf("accepted %d bytes but the re-encoded form fails: %v", len(data), err)
		}
		// A decoded event holds no map, so its encoding is one byte string
		// (compared as bytes: a NaN intensity is not DeepEqual to itself).
		if !bytes.Equal(wire.MarshalBody(&again), out) {
			t.Fatalf("decode, encode, decode is not a fixed point:\n 1st: %+v\n 2nd: %+v", ev, again)
		}
	})
}

// TestChangeRunRefusals: what FuzzEventDecode's hostile seeds must do —
// an unknown tag and a count beyond the input are refused (what the
// refusal allocates is TestClaimedCountAllocatesNothing's, in proto).
func TestChangeRunRefusals(t *testing.T) {
	pres := Event{Seq: 9, Room: "r", Kind: EvPresentation, Base: 3, View: 4,
		Changes: []ViewChange{{Tag: ChangeDropComponent + 1, Name: "ct"}}}
	if err := wire.DecodeBodyBytes(wire.MarshalBody(&pres), new(Event)); err == nil {
		t.Error("a change with an unknown tag decodes without error")
	}
	pres.Changes = nil
	claim := wire.MarshalBody(&pres)
	claim[bytes.LastIndex(claim, []byte{3, 4, 0})+2] = 0x7F
	if err := wire.DecodeBodyBytes(claim, new(Event)); err == nil {
		t.Error("a run claiming 127 entries in 4 bytes decodes without error")
	}
}
