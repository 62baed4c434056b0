package proto

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// codecCase pairs a populated body with a fresh destination of the same
// type for decoding.
type codecCase struct {
	name string
	in   interface {
		wire.BodyEncoder
		wire.BodyDecoder
	}
	out interface {
		wire.BodyEncoder
		wire.BodyDecoder
	}
}

func sampleEvents() []room.Event {
	return []room.Event{
		{
			Seq: 3, Room: "consult", Actor: "alice", Kind: room.EvChat,
			Text: "look at layer two",
		},
		{
			Seq: 4, Room: "consult", Actor: "bob", Kind: room.EvAnnotate,
			ObjectID: 12,
			Annotation: image.Annotation{
				ID: 7, Kind: 1, X1: 10, Y1: -3, X2: 200, Y2: 140,
				Text: "lesion?", Intensity: 0.75,
			},
		},
		{
			Seq: 5, Room: "consult", Actor: "alice", Kind: room.EvWordSearch,
			Keyword: "aneurysm",
			Hits: []voice.Hit{
				{Word: "aneurysm", Start: 100, End: 160, Score: 0.93},
				{Word: "aneurysm", Start: 8000, End: 8070, Score: 0.71},
			},
		},
		{
			Seq: 6, Room: "consult", Actor: "sys", Kind: room.EvPresentation,
			Variable: "ct", Value: "segmented",
			Base: 11, View: 12,
			Changes: []room.ViewChange{
				{Tag: room.ChangeSet, Name: "ct", Value: "segmented"},
				{Tag: room.ChangeShow, Name: "img.1"},
				{Tag: room.ChangeHide, Name: "img.2"},
				{Tag: room.ChangeDropVariable, Name: "ct.zoom"},
				{Tag: room.ChangeDropComponent, Name: "minutes-1"},
			},
			Resync: true,
		},
		{
			Seq: 7, Room: "consult", Actor: "bob", Kind: room.EvOperation,
			Component: "viewer", Op: "zoom", ActiveWhen: "always",
			DerivedVar: "zoomlevel", Private: true, AnnotationID: -2,
		},
	}
}

func codecCases() []codecCase {
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []codecCase{
		{"ListDocumentsReq", &ListDocumentsReq{}, &ListDocumentsReq{}},
		{"ListDocumentsResp", &ListDocumentsResp{
			IDs: []string{"p1", "p2"}, Titles: []string{"Case 1", "Case 2"},
		}, &ListDocumentsResp{}},
		{"ListDocumentsResp/empty", &ListDocumentsResp{}, &ListDocumentsResp{}},
		{"GetDocumentReq", &GetDocumentReq{DocID: "p1"}, &GetDocumentReq{}},
		{"GetDocumentResp", &GetDocumentResp{DocData: big}, &GetDocumentResp{}},
		{"GetImageReq", &GetImageReq{ID: 42}, &GetImageReq{}},
		{"GetImageReq/conditional", &GetImageReq{
			ID: 42, IfDigestAbsent: []byte{0xD1, 0xD2, 0xD3},
		}, &GetImageReq{}},
		{"GetImageResp/notmodified", &GetImageResp{
			Quality: 3, Texts: "axial slice", CM: 1.25,
			Digest: []byte{1, 2, 3, 4}, NotModified: true,
		}, &GetImageResp{}},
		{"GetImageResp", &GetImageResp{
			Quality: 3, Texts: "axial slice", CM: 1.25,
			Digest: []byte{1, 2, 3, 4}, Data: big,
		}, &GetImageResp{}},
		{"GetAudioReq", &GetAudioReq{ID: 9}, &GetAudioReq{}},
		{"GetAudioReq/conditional", &GetAudioReq{
			ID: 9, IfDigestAbsent: []byte{0xA1, 0xA2},
		}, &GetAudioReq{}},
		{"GetAudioResp/notmodified", &GetAudioResp{
			Filename: "consult.au", Sectors: big[:700],
			Digest: []byte{9, 8, 7}, NotModified: true,
		}, &GetAudioResp{}},
		{"GetAudioResp", &GetAudioResp{
			Filename: "consult.au", Sectors: big[:700],
			Digest: []byte{9, 8, 7}, Data: big,
		}, &GetAudioResp{}},
		{"GetCmpReq", &GetCmpReq{ID: 5, MaxLayers: 3}, &GetCmpReq{}},
		{"GetCmpReq/conditional", &GetCmpReq{
			ID: 5, IfDigestAbsent: []byte{0xC1, 0xC2},
		}, &GetCmpReq{}},
		{"GetCmpResp/notmodified", &GetCmpResp{
			Filename: "scan.cmp", Digest: []byte{5, 5, 5},
			Header: []byte("hdr"), NotModified: true,
		}, &GetCmpResp{}},
		{"GetCmpResp", &GetCmpResp{
			Filename: "scan.cmp", Digest: []byte{5, 5, 5},
			Header: []byte("hdr"), Data: big,
		}, &GetCmpResp{}},
		{"JoinRoomReq", &JoinRoomReq{
			Room: "consult", DocID: "p1", User: "alice", Resume: true, SinceSeq: 41, Buffered: true,
		}, &JoinRoomReq{}},
		{"JoinRoomResp", &JoinRoomResp{
			DocData: big, History: sampleEvents(),
			View: room.Event{
				Seq: 8, Room: "consult", Actor: "alice", Kind: room.EvPresentation, View: 3,
				Changes: []room.ViewChange{
					{Tag: room.ChangeSet, Name: "ct", Value: "raw"},
					{Tag: room.ChangeShow, Name: "img.1"},
				},
			},
			Resumed: true, Complete: true,
		}, &JoinRoomResp{}},
		{"JoinRoomResp/empty", &JoinRoomResp{}, &JoinRoomResp{}},
		{"LeaveRoomReq", &LeaveRoomReq{Room: "consult", User: "bob"}, &LeaveRoomReq{}},
		{"ChoiceReq", &ChoiceReq{
			Room: "consult", User: "alice", Variable: "ct", Value: "segmented",
		}, &ChoiceReq{}},
		{"ChatReq", &ChatReq{Room: "consult", User: "bob", Text: "hi"}, &ChatReq{}},
		{"HistoryReq", &HistoryReq{Room: "consult", Since: 12}, &HistoryReq{}},
		{"HistoryResp", &HistoryResp{Events: sampleEvents()}, &HistoryResp{}},
		{"HistoryResp/empty", &HistoryResp{}, &HistoryResp{}},
		{"PutImageTextsReq", &PutImageTextsReq{ID: 45, Texts: "lesion, upper-left"}, &PutImageTextsReq{}},
		{"OperationReq", &OperationReq{
			Room: "consult", User: "alice", Component: "ct", Op: "zoom",
			ActiveWhen: "always", Private: true,
		}, &OperationReq{}},
		{"OperationResp", &OperationResp{DerivedVar: "ct.zoom"}, &OperationResp{}},
		{"AnnotateReq", &AnnotateReq{
			Room: "consult", User: "bob", ObjectID: 9, Kind: 1,
			X1: 1, Y1: -2, X2: 300, Y2: 4, Text: "note", Intensity: 0.5,
		}, &AnnotateReq{}},
		{"AnnotateResp", &AnnotateResp{AnnotationID: -7}, &AnnotateResp{}},
		{"DeleteAnnotationReq", &DeleteAnnotationReq{
			Room: "consult", User: "bob", ObjectID: 9, AnnotationID: 2,
		}, &DeleteAnnotationReq{}},
		{"FreezeReq", &FreezeReq{Room: "consult", User: "bob", ObjectID: 9}, &FreezeReq{}},
		{"ReleaseReq", &ReleaseReq{Room: "consult", User: "alice", ObjectID: 9}, &ReleaseReq{}},
		{"ShareSearchReq", &ShareSearchReq{
			Room: "consult", User: "alice", Speaker: true, Keyword: "tumor",
			Hits: []voice.Hit{{Word: "tumor", Start: 100, End: 250, Score: -1.25}},
		}, &ShareSearchReq{}},
		{"ShareSearchReq/nohits", &ShareSearchReq{Room: "consult", User: "alice", Keyword: "x"}, &ShareSearchReq{}},
		{"BroadcastReq", &BroadcastReq{Room: "consult", User: "alice"}, &BroadcastReq{}},
		{"SaveMinutesReq", &SaveMinutesReq{Room: "consult", User: "alice"}, &SaveMinutesReq{}},
		{"SaveMinutesResp", &SaveMinutesResp{Component: "minutes"}, &SaveMinutesResp{}},
		{"StatsReq", &StatsReq{}, &StatsReq{}},
		{"StatsResp", &StatsResp{
			Methods: map[string]MethodSummary{
				MChoice: {Requests: 100, Errors: 1, Mean: time.Millisecond,
					Max: 20 * time.Millisecond, P50: time.Millisecond,
					P90: 3 * time.Millisecond, P99: 15 * time.Millisecond},
			},
			Counters: map[string]uint64{"push.events": 400, "wire.writer_bytes": 1<<63 + 5},
			Gauges:   map[string]int64{"wire.peers": 4, "cache.obj.bytes": -1 << 40},
			Rooms: []RoomStatus{{
				Name: "consult", Members: 4, Detached: 1, QueuedEvents: 2,
				QueuedBytes: 1 << 33, MaxQueueDepth: 256, BufferedEvents: 64,
			}},
		}, &StatsResp{}},
		{"StatsResp/empty", &StatsResp{}, &StatsResp{}},
		{"TracesReq", &TracesReq{ID: 0xdeadbeef, Limit: 5}, &TracesReq{}},
		{"TracesResp", &TracesResp{Traces: []TraceInfo{{
			ID: 1<<63 + 77, Method: MChoice, Peer: 3,
			Start: time.Unix(1700000000, 123456789).UTC(),
			Total: 300 * time.Millisecond, Err: "deadline exceeded",
			Spans: []TraceSpan{
				{Name: "decode", Start: 0, Dur: time.Millisecond},
				{Name: "handle", Start: time.Millisecond, Dur: 299 * time.Millisecond},
			},
		}}}, &TracesResp{}},
		{"TracesResp/empty", &TracesResp{}, &TracesResp{}},
		{"PrefetchPush", &PrefetchPush{
			Room: "consult", ObjectID: 12, Digest: []byte{1, 2, 3}, Data: big,
		}, &PrefetchPush{}},
		{"None", &wire.None{}, &wire.None{}},
		{"ReplicateReq/dataset", &ReplicateReq{
			Room: "consult", DocID: "p1", Seq: 19, Trimmed: 2, Node: "n1",
			Rows: []mediadb.DatasetRow{
				{Table: "IMAGE_OBJECTS_TABLE", ID: 3, Row: store.Row{
					int64(2), "axial", 0.5, blob.Handle{Digest: blob.Digest{2, 2}, Length: 4096}}},
				{Table: "AUDIO_OBJECTS_TABLE", ID: 7, Row: store.Row{
					"v.au", []byte{1, 2, 3}, blob.Handle{Digest: blob.Digest{3, 3}, Length: 900}}},
				{Table: "CMP_OBJECTS_TABLE", ID: 9, Row: store.Row{
					"s.cmp", int64(65536), int64(-12), blob.Handle{}, blob.Handle{Digest: blob.Digest{5}, Length: 65536}}},
				{Table: "DOCUMENT_OBJECTS_TABLE", Row: store.Row{
					"p1", "Case 1", blob.Handle{Digest: blob.Digest{1, 1, 1}, Length: 256}}},
			},
			Manifests: []BlobManifest{
				{Digest: blob.Digest{5}, Length: 65536, Chunks: []blob.Digest{{6}, {7}}},
			},
		}, &ReplicateReq{}},
		{"ReplicateReq/nodataset", &ReplicateReq{
			Room: "consult", DocID: "p1", Seq: 19, Trimmed: 2,
		}, &ReplicateReq{}},
		{"ReplicateResp", &ReplicateResp{Seq: 19}, &ReplicateResp{}},
		{"FetchChunksReq", &FetchChunksReq{
			Node: "n2", Digests: []blob.Digest{{1, 2}, {3, 4}},
		}, &FetchChunksReq{}},
		{"FetchChunksResp", &FetchChunksResp{
			Chunks: [][]byte{big, {9}},
		}, &FetchChunksResp{}},
	}
}

// gobRoundTrip copies v (a pointer to a body) through encoding/gob into
// a fresh value of the same type — the reference the hand-written
// codecs are checked against: reflection-driven, so it cannot share a
// field-order or omission mistake with them. A fieldless body, which
// gob refuses to encode, is its own reference.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	// A replicated row's cell is an interface value; the other four cell types are
	// gob built-ins.
	gob.Register(blob.Handle{})
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if reflect.TypeOf(v).Elem().NumField() == 0 {
		return out
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return out
}

// TestBinaryCodecsMatchGob checks, for every body, that the binary
// round trip reproduces the source struct, and exactly the struct a gob
// round trip (the reference) would.
func TestBinaryCodecsMatchGob(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			data := wire.MarshalBody(tc.in)
			if err := wire.DecodeBodyBytes(data, tc.out); err != nil {
				t.Fatalf("binary decode: %v", err)
			}
			if !reflect.DeepEqual(tc.in, tc.out) {
				t.Errorf("binary round trip:\n in: %+v\nout: %+v", tc.in, tc.out)
			}
			if viaGob := gobRoundTrip(t, tc.in); !reflect.DeepEqual(viaGob, tc.out) {
				t.Errorf("binary and gob round trips disagree:\ngob: %+v\nbin: %+v", viaGob, tc.out)
			}
		})
	}
}

// TestBinaryCodecRejectsTrailingBytes checks the strict-consumption
// guard on every body: a payload with junk after it must not decode
// silently.
func TestBinaryCodecRejectsTrailingBytes(t *testing.T) {
	for _, tc := range codecCases() {
		data := append(wire.MarshalBody(tc.in), 0xFF)
		if err := wire.DecodeBodyBytes(data, tc.out); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestBinaryCodecTruncation checks every proper prefix of every encoded
// body fails cleanly (error, not panic or false success).
func TestBinaryCodecTruncation(t *testing.T) {
	for _, tc := range codecCases() {
		full := wire.MarshalBody(tc.in)
		for n := 0; n < len(full); n++ {
			fresh := reflect.New(reflect.TypeOf(tc.out).Elem()).Interface().(wire.BodyDecoder)
			if err := wire.DecodeBodyBytes(full[:n], fresh); err == nil {
				t.Fatalf("%s: truncation at %d/%d bytes decoded successfully", tc.name, n, len(full))
			}
		}
	}
}

// TestEventCodecSharedEncoding checks room.MarshalEventBinary and the
// fan-out path's EncodeShared agree with the event's own codec and
// decode back to the source event.
func TestEventCodecSharedEncoding(t *testing.T) {
	for _, ev := range sampleEvents() {
		data, err := room.MarshalEventBinary(ev)
		if err != nil {
			t.Fatal(err)
		}
		// The two encodes agree up to map iteration order, so compare what
		// they decode to, not their bytes.
		shared, _ := ev.EncodeShared()
		for _, enc := range [][]byte{data, shared} {
			var out room.Event
			if err := wire.DecodeBodyBytes(enc, &out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ev, out) {
				t.Errorf("event round trip:\n in: %+v\nout: %+v", ev, out)
			}
		}
	}
}

// claim is a body whose last field is a run's count with nothing behind
// it: the fields before the run, then the count.
type claim struct {
	before func(e *wire.BodyEnc)
	count  uint64
}

func (c claim) AppendBody(e *wire.BodyEnc) {
	c.before(e)
	e.Uvarint(c.count)
}

// TestClaimedCountAllocatesNothing: a count read off the wire is not a
// reason to allocate. Every count-prefixed run a peer can send — nine
// sites, one body each — is handed a claim of 4 096 elements with no byte
// behind it: the decode fails, and before it does it has allocated the
// strings in front of the run and nothing sized by the claim (the
// ShareSearchReq case cost 164 002 B when the count was only capped).
func TestClaimedCountAllocatesNothing(t *testing.T) {
	zeros := func(n int) func(*wire.BodyEnc) {
		return func(e *wire.BodyEnc) {
			for i := 0; i < n; i++ {
				e.Byte(0)
			}
		}
	}
	eventFront := func(e *wire.BodyEnc) { // an Event up to its change run
		ev := room.Event{Seq: 9, Room: "r", Kind: room.EvPresentation}
		full := wire.MarshalBody(&ev)
		e.Fixed(full[:len(full)-5]) // less the run's count and the four fields after it
	}
	joinFront := func(e *wire.BodyEnc) { // no document, no history, then the view
		e.Byte(0)
		e.Byte(0)
		eventFront(e)
	}
	for _, tc := range []struct {
		site   string
		before func(*wire.BodyEnc)
		into   func() wire.BodyDecoder
	}{
		{"JoinRoomResp view's change run", joinFront, func() wire.BodyDecoder { return new(JoinRoomResp) }},
		{"room.DecodeHits", zeros(4), func() wire.BodyDecoder { return new(ShareSearchReq) }},
		{"room.Event change run", eventFront, func() wire.BodyDecoder { return new(room.Event) }},
		{"decodeStrings", zeros(0), func() wire.BodyDecoder { return new(ListDocumentsResp) }},
		{"decodeEvents", zeros(0), func() wire.BodyDecoder { return new(HistoryResp) }},
		{"decodeDigests", zeros(1), func() wire.BodyDecoder { return new(FetchChunksReq) }},
		{"ReplicateReq rows", zeros(6), func() wire.BodyDecoder { return new(ReplicateReq) }},
		{"ReplicateReq manifests", zeros(7), func() wire.BodyDecoder { return new(ReplicateReq) }},
		{"FetchChunksResp chunks", zeros(0), func() wire.BodyDecoder { return new(FetchChunksResp) }},
	} {
		body := wire.MarshalBody(claim{tc.before, 4096})
		// A modest claim with nothing behind it is refused just the same.
		if err := wire.DecodeBodyBytes(wire.MarshalBody(claim{tc.before, 1}), tc.into()); err == nil {
			t.Errorf("%s: a run of one element with nothing behind it decodes without error", tc.site)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := wire.DecodeBodyBytes(body, tc.into()); err == nil {
				t.Fatalf("%s: a claim of 4 096 elements in %d bytes decodes without error", tc.site, len(body))
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
			t.Errorf("%s: refusing the claim allocates %d B, want under 1 KiB", tc.site, per)
		}
	}
}
