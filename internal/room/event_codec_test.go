package room

import (
	"reflect"
	"testing"

	"mmconf/internal/cpnet"
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
			Outcome: cpnet.Outcome{"ct": "segmented", "xray": "icon"},
			Visible: map[string]bool{"ct": true, "xray": false}},
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

// TestChoiceEventBytes pins the size of the event every choice fans out:
// each field the codec carries costs every member of every room a byte or
// more per event, whether the kind uses it or not.
func TestChoiceEventBytes(t *testing.T) {
	ev := Event{Seq: 41, Room: "consult", Actor: "dr-adams", Kind: EvChoice, Variable: "ct", Value: "segmented"}
	if got := len(wire.MarshalBody(&ev)); got != 60 {
		t.Errorf("the EvChoice encodes to %d bytes, want 60: Event.AppendBody gained or lost a field", got)
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
		if len(wire.MarshalBody(&again)) != len(out) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
