// Binary (wire v2) codecs for the client-plane request/response bodies.
// Each codec writes fields in declaration order with the wire.BodyEnc
// primitives; large payloads go through RawBytes, so a blob chunk read
// from the CAS is referenced — never copied — all the way to the
// socket's writev. Every room-scoped request encodes Room first, which
// is what lets a routing tier read the room name without decoding the
// body (RoomOf, methods.go). The operator-facing sys.stats and
// sys.traces responses are cold and map-heavy: they carry their body as
// one JSON blob.
package proto

import (
	"encoding/json"
	"fmt"
	"slices"

	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// --- catalog --------------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *ListDocumentsResp) AppendBody(e *wire.BodyEnc) {
	appendStrings(e, r.IDs)
	appendStrings(e, r.Titles)
}

// DecodeBody implements wire.BodyDecoder.
func (r *ListDocumentsResp) DecodeBody(d *wire.Dec) error {
	r.IDs = decodeStrings(d)
	r.Titles = decodeStrings(d)
	return d.Err()
}

// --- media fetches --------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *GetDocumentReq) AppendBody(e *wire.BodyEnc) { e.String(r.DocID) }

// DecodeBody implements wire.BodyDecoder.
func (r *GetDocumentReq) DecodeBody(d *wire.Dec) error {
	r.DocID = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetDocumentResp) AppendBody(e *wire.BodyEnc) { e.RawBytes(r.DocData) }

// DecodeBody implements wire.BodyDecoder.
func (r *GetDocumentResp) DecodeBody(d *wire.Dec) error {
	r.DocData = d.Bytes()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetImageReq) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(r.ID)
	e.Bytes(r.IfDigestAbsent)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetImageReq) DecodeBody(d *wire.Dec) error {
	r.ID = d.Uvarint()
	r.IfDigestAbsent = d.Bytes()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetImageResp) AppendBody(e *wire.BodyEnc) {
	e.Varint(r.Quality)
	e.String(r.Texts)
	e.F64(r.CM)
	e.Bytes(r.Digest)
	e.RawBytes(r.Data)
	e.Bool(r.NotModified)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetImageResp) DecodeBody(d *wire.Dec) error {
	r.Quality = d.Varint()
	r.Texts = d.String()
	r.CM = d.F64()
	r.Digest = d.Bytes()
	r.Data = d.Bytes()
	r.NotModified = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetAudioReq) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(r.ID)
	e.Bytes(r.IfDigestAbsent)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetAudioReq) DecodeBody(d *wire.Dec) error {
	r.ID = d.Uvarint()
	r.IfDigestAbsent = d.Bytes()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetAudioResp) AppendBody(e *wire.BodyEnc) {
	e.String(r.Filename)
	e.RawBytes(r.Sectors)
	e.Bytes(r.Digest)
	e.RawBytes(r.Data)
	e.Bool(r.NotModified)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetAudioResp) DecodeBody(d *wire.Dec) error {
	r.Filename = d.String()
	r.Sectors = d.Bytes()
	r.Digest = d.Bytes()
	r.Data = d.Bytes()
	r.NotModified = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetCmpReq) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(r.ID)
	e.Varint(int64(r.MaxLayers))
	e.Bytes(r.IfDigestAbsent)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetCmpReq) DecodeBody(d *wire.Dec) error {
	r.ID = d.Uvarint()
	r.MaxLayers = int(d.Varint())
	r.IfDigestAbsent = d.Bytes()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *GetCmpResp) AppendBody(e *wire.BodyEnc) {
	e.String(r.Filename)
	e.Bytes(r.Digest)
	e.RawBytes(r.Header)
	e.RawBytes(r.Data)
	e.Bool(r.NotModified)
}

// DecodeBody implements wire.BodyDecoder.
func (r *GetCmpResp) DecodeBody(d *wire.Dec) error {
	r.Filename = d.String()
	r.Digest = d.Bytes()
	r.Header = d.Bytes()
	r.Data = d.Bytes()
	r.NotModified = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *PutImageTextsReq) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(r.ID)
	e.String(r.Texts)
}

// DecodeBody implements wire.BodyDecoder.
func (r *PutImageTextsReq) DecodeBody(d *wire.Dec) error {
	r.ID = d.Uvarint()
	r.Texts = d.String()
	return d.Err()
}

// --- room membership and interaction --------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *JoinRoomReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.DocID)
	e.String(r.User)
	e.Bool(r.Resume)
	e.Uvarint(r.SinceSeq)
	e.Bool(r.Buffered)
}

// DecodeBody implements wire.BodyDecoder.
func (r *JoinRoomReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.DocID = d.String()
	r.User = d.String()
	r.Resume = d.Bool()
	r.SinceSeq = d.Uvarint()
	r.Buffered = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *JoinRoomResp) AppendBody(e *wire.BodyEnc) {
	e.RawBytes(r.DocData)
	e.Uvarint(uint64(len(r.History)))
	for i := range r.History {
		r.History[i].AppendBody(e)
	}
	r.View.AppendBody(e)
	e.Bool(r.Resumed)
	e.Bool(r.Complete)
}

// DecodeBody implements wire.BodyDecoder.
func (r *JoinRoomResp) DecodeBody(d *wire.Dec) error {
	r.DocData = d.Bytes()
	var err error
	if r.History, err = decodeEvents(d, nil); err != nil {
		return err
	}
	if err := r.View.DecodeBody(d); err != nil {
		return err
	}
	r.Resumed = d.Bool()
	r.Complete = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder (LeaveRoomReq, BroadcastReq and
// SaveMinutesReq alias MemberReq).
func (r *MemberReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
}

// DecodeBody implements wire.BodyDecoder.
func (r *MemberReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *ChoiceReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.String(r.Variable)
	e.String(r.Value)
}

// DecodeBody implements wire.BodyDecoder.
func (r *ChoiceReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.Variable = d.String()
	r.Value = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *ChatReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.String(r.Text)
}

// DecodeBody implements wire.BodyDecoder.
func (r *ChatReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.Text = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *HistoryReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.Uvarint(r.Since)
}

// DecodeBody implements wire.BodyDecoder.
func (r *HistoryReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.Since = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *HistoryResp) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(uint64(len(r.Events)))
	for i := range r.Events {
		r.Events[i].AppendBody(e)
	}
}

// DecodeBody implements wire.BodyDecoder.
func (r *HistoryResp) DecodeBody(d *wire.Dec) error {
	var err error
	r.Events, err = decodeEvents(d, nil)
	return err
}

// AppendBody implements wire.BodyEncoder.
func (r *OperationReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.String(r.Component)
	e.String(r.Op)
	e.String(r.ActiveWhen)
	e.Bool(r.Private)
}

// DecodeBody implements wire.BodyDecoder.
func (r *OperationReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.Component = d.String()
	r.Op = d.String()
	r.ActiveWhen = d.String()
	r.Private = d.Bool()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *OperationResp) AppendBody(e *wire.BodyEnc) { e.String(r.DerivedVar) }

// DecodeBody implements wire.BodyDecoder.
func (r *OperationResp) DecodeBody(d *wire.Dec) error {
	r.DerivedVar = d.String()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *AnnotateReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.Uvarint(r.ObjectID)
	e.Varint(int64(r.Kind))
	e.Varint(int64(r.X1))
	e.Varint(int64(r.Y1))
	e.Varint(int64(r.X2))
	e.Varint(int64(r.Y2))
	e.String(r.Text)
	e.F64(r.Intensity)
}

// DecodeBody implements wire.BodyDecoder.
func (r *AnnotateReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.ObjectID = d.Uvarint()
	r.Kind = int(d.Varint())
	r.X1 = int(d.Varint())
	r.Y1 = int(d.Varint())
	r.X2 = int(d.Varint())
	r.Y2 = int(d.Varint())
	r.Text = d.String()
	r.Intensity = d.F64()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *AnnotateResp) AppendBody(e *wire.BodyEnc) { e.Varint(int64(r.AnnotationID)) }

// DecodeBody implements wire.BodyDecoder.
func (r *AnnotateResp) DecodeBody(d *wire.Dec) error {
	r.AnnotationID = int(d.Varint())
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *DeleteAnnotationReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.Uvarint(r.ObjectID)
	e.Varint(int64(r.AnnotationID))
}

// DecodeBody implements wire.BodyDecoder.
func (r *DeleteAnnotationReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.ObjectID = d.Uvarint()
	r.AnnotationID = int(d.Varint())
	return d.Err()
}

// AppendBody implements wire.BodyEncoder (ReleaseReq aliases FreezeReq).
func (r *FreezeReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.Uvarint(r.ObjectID)
}

// DecodeBody implements wire.BodyDecoder.
func (r *FreezeReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.ObjectID = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *ShareSearchReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.User)
	e.Bool(r.Speaker)
	e.String(r.Keyword)
	room.AppendHits(e, r.Hits)
}

// DecodeBody implements wire.BodyDecoder.
func (r *ShareSearchReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.User = d.String()
	r.Speaker = d.Bool()
	r.Keyword = d.String()
	r.Hits = room.DecodeHits(d)
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *SaveMinutesResp) AppendBody(e *wire.BodyEnc) { e.String(r.Component) }

// DecodeBody implements wire.BodyDecoder.
func (r *SaveMinutesResp) DecodeBody(d *wire.Dec) error {
	r.Component = d.String()
	return d.Err()
}

// --- observability --------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *StatsResp) AppendBody(e *wire.BodyEnc) { appendJSON(e, r) }

// DecodeBody implements wire.BodyDecoder.
func (r *StatsResp) DecodeBody(d *wire.Dec) error { return decodeJSON(d, r) }

// AppendBody implements wire.BodyEncoder.
func (r *TracesReq) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(r.ID)
	e.Varint(int64(r.Limit))
}

// DecodeBody implements wire.BodyDecoder.
func (r *TracesReq) DecodeBody(d *wire.Dec) error {
	r.ID = d.Uvarint()
	r.Limit = int(d.Varint())
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *TracesResp) AppendBody(e *wire.BodyEnc) { appendJSON(e, r) }

// DecodeBody implements wire.BodyDecoder.
func (r *TracesResp) DecodeBody(d *wire.Dec) error { return decodeJSON(d, r) }

// --- push-prefetch --------------------------------------------------------

// AppendBody implements wire.BodyEncoder.
func (r *PrefetchPush) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.Uvarint(r.ObjectID)
	e.Bytes(r.Digest)
	e.RawBytes(r.Data)
}

// DecodeBody implements wire.BodyDecoder.
func (r *PrefetchPush) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.ObjectID = d.Uvarint()
	r.Digest = d.Bytes()
	r.Data = d.Bytes()
	return d.Err()
}

// --- shared helpers -------------------------------------------------------

// appendJSON writes v as one length-prefixed JSON blob. The bodies that
// use it hold only strings, integers, durations and times, which
// encoding/json cannot fail on.
func appendJSON(e *wire.BodyEnc, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("proto: json encode %T: %v", v, err))
	}
	e.RawBytes(data)
}

// decodeJSON reads the blob appendJSON wrote into v.
func decodeJSON(d *wire.Dec, v any) error {
	data := d.Bytes()
	if err := d.Err(); err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func appendStrings(e *wire.BodyEnc, ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

func decodeStrings(d *wire.Dec) []string {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil
	}
	out := make([]string, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.String())
	}
	return out
}

// decodeEvents reads a count-prefixed run of Event bodies (the Event
// codec is self-delimiting, so no per-event length prefix is needed) into
// dst's capacity, decoding each event in its slot. dst is nil for a run
// its reader keeps (a history, a join's); ReplicateReq passes the array
// its last frame decoded into, because the standby's merge copies the
// events out, so a frame no longer than the last decodes into no new
// array. The error is d's, or the first event's own refusal.
func decodeEvents(d *wire.Dec, dst []room.Event) ([]room.Event, error) {
	dst = dst[:0]
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return dst, d.Err()
	}
	dst = slices.Grow(dst, int(min(n, 4096)))
	for i := uint64(0); i < n; i++ {
		dst = append(dst, room.Event{})
		if err := dst[i].DecodeBody(d); err != nil {
			return dst[:0], err
		}
	}
	return dst, nil
}
