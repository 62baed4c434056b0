package proto

import (
	"reflect"
	"testing"
	"time"

	"mmconf/internal/media/voice"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// body is what every protocol body must be: encodable and decodable by
// its own hand-written codec.
type body interface {
	wire.BodyEncoder
	wire.BodyDecoder
}

// roundTrip encodes v with its codec and decodes the bytes into a fresh
// value of the same type — exactly what happens to a body between
// client and server.
func roundTrip[T any, P interface {
	*T
	body
}](t *testing.T, v P) P {
	t.Helper()
	out := P(new(T))
	if err := wire.DecodeBodyBytes(wire.MarshalBody(v), out); err != nil {
		t.Fatalf("round trip %T: %v", v, err)
	}
	return out
}

// check round-trips v and requires deep equality.
func check[T any, P interface {
	*T
	body
}](t *testing.T, v P) {
	t.Helper()
	if got := roundTrip[T](t, v); !reflect.DeepEqual(got, v) {
		t.Errorf("%T round-trip mismatch:\n got  %+v\n want %+v", v, got, v)
	}
}

// bodyPair is one method's request and response body, as empty values.
type bodyPair struct{ req, resp body }

// methodBodies pairs every registered method with its request and
// response type (the compiler checks each carries a codec — the table
// would not build otherwise). TestEveryMethodHasCodecs holds it against
// the registry and FuzzBodyCodecs feeds every body in it.
var methodBodies = map[string]bodyPair{
	MListDocuments:    {&ListDocumentsReq{}, &ListDocumentsResp{}},
	MGetDocument:      {&GetDocumentReq{}, &GetDocumentResp{}},
	MGetImage:         {&GetImageReq{}, &GetImageResp{}},
	MGetAudio:         {&GetAudioReq{}, &GetAudioResp{}},
	MGetCmp:           {&GetCmpReq{}, &GetCmpResp{}},
	MPutImageTexts:    {&PutImageTextsReq{}, &wire.None{}},
	MJoinRoom:         {&JoinRoomReq{}, &JoinRoomResp{}},
	MLeaveRoom:        {&LeaveRoomReq{}, &wire.None{}},
	MChoice:           {&ChoiceReq{}, &wire.None{}},
	MOperation:        {&OperationReq{}, &OperationResp{}},
	MAnnotate:         {&AnnotateReq{}, &AnnotateResp{}},
	MDeleteAnnotation: {&DeleteAnnotationReq{}, &wire.None{}},
	MFreeze:           {&FreezeReq{}, &wire.None{}},
	MRelease:          {&ReleaseReq{}, &wire.None{}},
	MShareSearch:      {&ShareSearchReq{}, &wire.None{}},
	MChat:             {&ChatReq{}, &wire.None{}},
	MHistory:          {&HistoryReq{}, &HistoryResp{}},
	MBroadcastStart:   {&BroadcastReq{}, &wire.None{}},
	MBroadcastStop:    {&BroadcastReq{}, &wire.None{}},
	MSaveMinutes:      {&SaveMinutesReq{}, &SaveMinutesResp{}},
	MStats:            {&StatsReq{}, &StatsResp{}},
	MTraces:           {&TracesReq{}, &TracesResp{}},
	MEvent:            {&room.Event{}, &wire.None{}},   // push: the body travels server → client
	MPrefetchPush:     {&PrefetchPush{}, &wire.None{}}, // push
	MNodePing:         {&NodePingReq{}, &NodePingResp{}},
	MNodeIngress:      {&NodeIngressReq{}, &wire.None{}},
	MNodeReplicate:    {&ReplicateReq{}, &ReplicateResp{}},
	MNodeFetchChunks:  {&FetchChunksReq{}, &FetchChunksResp{}},
}

// freshBody returns a new empty value of b's type.
func freshBody(b body) body {
	return reflect.New(reflect.TypeOf(b).Elem()).Interface().(body)
}

// TestEveryMethodHasCodecs: every body of methodBodies round-trips its
// empty value, and no registered method may be missing from the table.
func TestEveryMethodHasCodecs(t *testing.T) {
	methods := methodBodies
	for _, codes := range []map[uint16]string{clientMethodCodes, nodeMethodCodes} {
		for code, m := range codes {
			if _, ok := methods[m]; !ok {
				t.Errorf("method %s (code %d) is registered but missing from the table", m, code)
			}
		}
	}
	for m, p := range methods {
		for _, b := range []body{p.req, p.resp} {
			if err := wire.DecodeBodyBytes(wire.MarshalBody(b), freshBody(b)); err != nil {
				t.Errorf("%s: %T: %v", m, b, err)
			}
		}
		// Every room-scoped request leads with Room, so the routing tier
		// can read it without knowing the body.
		if RoomScoped(m) {
			v := reflect.New(reflect.TypeOf(p.req).Elem())
			v.Elem().FieldByName("Room").SetString("tumor-board")
			got, ok := RoomOf(m, wire.MarshalBody(v.Interface().(body)))
			if !ok || got != "tumor-board" {
				t.Errorf("%s: RoomOf = %q, %v", m, got, ok)
			}
		}
	}
}

func TestRequestRoundTrips(t *testing.T) {
	check(t, &ListDocumentsReq{})
	check(t, &GetDocumentReq{DocID: "patient-001"})
	check(t, &GetImageReq{ID: 42})
	check(t, &GetAudioReq{ID: 43})
	check(t, &GetCmpReq{ID: 44, MaxLayers: 3})
	check(t, &PutImageTextsReq{ID: 45, Texts: "lesion, upper-left"})
	check(t, &LeaveRoomReq{Room: "r", User: "alice"})
	check(t, &ChoiceReq{Room: "r", User: "alice", Variable: "ct", Value: "hi-res"})
	check(t, &OperationReq{Room: "r", User: "alice", Component: "ct", Op: "zoom", ActiveWhen: "always", Private: true})
	check(t, &AnnotateReq{Room: "r", User: "a", ObjectID: 9, Kind: 1, X1: 1, Y1: 2, X2: 3, Y2: 4, Text: "note", Intensity: 0.5})
	check(t, &DeleteAnnotationReq{Room: "r", User: "a", ObjectID: 9, AnnotationID: 2})
	check(t, &FreezeReq{Room: "r", User: "a", ObjectID: 9})
	check(t, &ReleaseReq{Room: "r", User: "b", ObjectID: 9})
	check(t, &ShareSearchReq{
		Room: "r", User: "a", Speaker: true, Keyword: "tumor",
		Hits: []voice.Hit{{Word: "tumor", Start: 100, End: 250, Score: -1.25}},
	})
	check(t, &ChatReq{Room: "r", User: "a", Text: "look at frame 3"})
	check(t, &HistoryReq{Room: "r", Since: 17})
	check(t, &BroadcastReq{Room: "r", User: "a"})
	check(t, &SaveMinutesReq{Room: "r", User: "a"})
	check(t, &StatsReq{})
	check(t, &TracesReq{ID: 0xdeadbeef, Limit: 5})
}

// TestJoinRoomRoundTripsResumeFields pins the session-resume protocol:
// the request's Resume/SinceSeq and the response's Resumed/Complete and
// first presentation must survive the wire exactly — a silently dropped
// Resume flag would turn every reconnect into a fresh join.
func TestJoinRoomRoundTripsResumeFields(t *testing.T) {
	req := JoinRoomReq{
		Room: "consult", DocID: "patient-001", User: "alice",
		Resume: true, SinceSeq: 123,
	}
	got := roundTrip(t, &req)
	if !got.Resume || got.SinceSeq != 123 {
		t.Fatalf("resume fields lost: %+v", got)
	}
	check(t, &req)

	resp := JoinRoomResp{
		DocData: []byte{1, 2, 3},
		History: []room.Event{{Seq: 5, Room: "consult", Actor: "bob", Variable: "ct", Value: "lo"}},
		View: room.Event{Seq: 9, Room: "consult", Actor: "alice", Kind: room.EvPresentation, View: 4,
			Changes: []room.ViewChange{{Tag: room.ChangeSet, Name: "ct", Value: "hi"}, {Tag: room.ChangeShow, Name: "ct"}}},
		Resumed: true, Complete: true,
	}
	got2 := roundTrip(t, &resp)
	if !got2.Resumed || !got2.Complete {
		t.Fatalf("resume fields lost: %+v", got2)
	}
	if got2.View.Seq != 9 || got2.View.View != 4 || len(got2.View.Changes) != 2 {
		t.Fatalf("the first presentation lost: %+v", got2.View)
	}
	check(t, &resp)
}

func TestResponseRoundTrips(t *testing.T) {
	check(t, &ListDocumentsResp{IDs: []string{"a", "b"}, Titles: []string{"A", "B"}})
	check(t, &GetDocumentResp{DocData: []byte{9, 8, 7}})
	check(t, &GetImageResp{Quality: 2, Texts: "t", CM: 1.5, Data: []byte{1}})
	check(t, &GetAudioResp{Filename: "v.au", Sectors: []byte{1, 2}, Data: []byte{3}})
	check(t, &GetCmpResp{Filename: "c.cmp", Header: []byte{1}, Data: []byte{2, 3}})
	check(t, &OperationResp{DerivedVar: "ct.zoom"})
	check(t, &AnnotateResp{AnnotationID: 7})
	check(t, &HistoryResp{Events: []room.Event{{Seq: 1, Room: "r", Actor: "a", Keyword: "k"}}})
	check(t, &SaveMinutesResp{Component: "minutes"})
}

func TestStatsRoundTrips(t *testing.T) {
	resp := StatsResp{
		Methods: map[string]MethodSummary{
			MChoice: {Requests: 100, Errors: 1, Mean: time.Millisecond,
				Max: 20 * time.Millisecond, P50: time.Millisecond,
				P90: 3 * time.Millisecond, P99: 15 * time.Millisecond},
		},
		Counters: map[string]uint64{"push.events": 400},
		Gauges:   map[string]int64{"wire.peers": 4, "cache.obj.bytes": 1 << 20},
		Rooms: []RoomStatus{{
			Name: "consult", Members: 4, Detached: 1,
			QueuedEvents: 2, MaxQueueDepth: 256, BufferedEvents: 64,
		}},
	}
	check(t, &resp)
}

func TestTracesRoundTrips(t *testing.T) {
	resp := TracesResp{Traces: []TraceInfo{{
		ID: 77, Method: MChoice, Peer: 3,
		Start: time.Unix(1700000000, 0).UTC(),
		Total: 300 * time.Millisecond, Err: "deadline exceeded",
		Spans: []TraceSpan{
			{Name: "decode", Start: 0, Dur: time.Millisecond},
			{Name: "handle", Start: time.Millisecond, Dur: 299 * time.Millisecond},
		},
	}}}
	check(t, &resp)
}
