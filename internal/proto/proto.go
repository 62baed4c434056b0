// Package proto defines the request/response bodies exchanged between the
// client module and the interaction server — the remote interface that
// RMI exposes in the paper's implementation (§5.3). Every body has a
// hand-written binary codec (codec2.go, cluster.go, sync.go) and crosses
// the network through package wire.
package proto

import (
	"time"

	"mmconf/internal/media/voice"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Method names.
const (
	MListDocuments    = "db.listDocuments"
	MGetDocument      = "db.getDocument"
	MGetImage         = "db.getImage"
	MGetAudio         = "db.getAudio"
	MGetCmp           = "db.getCmp"
	MPutImageTexts    = "db.putImageTexts"
	MJoinRoom         = "room.join"
	MLeaveRoom        = "room.leave"
	MChoice           = "room.choice"
	MOperation        = "room.operation"
	MAnnotate         = "room.annotate"
	MDeleteAnnotation = "room.deleteAnnotation"
	MFreeze           = "room.freeze"
	MRelease          = "room.release"
	MShareSearch      = "room.shareSearch"
	MChat             = "room.chat"
	MHistory          = "room.history"
	MBroadcastStart   = "room.broadcastStart"
	MBroadcastStop    = "room.broadcastStop"
	MSaveMinutes      = "room.saveMinutes"
	// MStats and MTraces are the runtime observability surface: live
	// metrics (per-method latency percentiles, counters, gauges) and the
	// ring of recent slow/errored request traces.
	MStats  = "sys.stats"
	MTraces = "sys.traces"
	// MEvent is the push method carrying room.Event to clients.
	MEvent = "room.event"
	// MPrefetchPush is the push method carrying a speculative payload the
	// QoS loop pre-pushes into a member's client-side buffer (§4.4
	// prefetching, driven from the server's likelihood ranking).
	MPrefetchPush = "room.prefetch"
)

// ListDocumentsReq asks for the stored document catalog.
type ListDocumentsReq = wire.None

// ListDocumentsResp lists document ids and titles, aligned by index.
type ListDocumentsResp struct {
	IDs    []string
	Titles []string
}

// GetDocumentReq fetches a document by id.
type GetDocumentReq struct{ DocID string }

// GetDocumentResp carries the serialized document (document.Unmarshal).
type GetDocumentResp struct{ DocData []byte }

// GetImageReq fetches an image object. IfDigestAbsent makes the fetch
// conditional: when the stored payload's digest equals it, the server
// answers NotModified with no payload bytes — the client already holds
// them in its digest-keyed cache.
type GetImageReq struct {
	ID             uint64
	IfDigestAbsent []byte
}

// GetImageResp carries one IMAGE_OBJECTS_TABLE row with payload. Digest
// is the payload's SHA-256 content address in the server's blob store —
// a client (or replica) holding a payload with the same digest already
// has these bytes and can serve them from its cache. After its Pool, a
// client call reads it into a pooled frame that Digest and Data alias
// until its Release (replyFrame).
type GetImageResp struct {
	replyFrame
	Quality int64
	Texts   string
	CM      float64
	Digest  []byte
	Data    []byte
	// NotModified reports that the request's IfDigestAbsent matched:
	// Data is empty and the client serves the payload from its cache.
	NotModified bool
}

// replyFrame is wire.ReplyFrame under a name of this package, so that a
// reply embeds it as an unexported field: the frame is no part of the
// message, and reflection (gob among it) passes it by. Pool and Release
// are promoted all the same.
type replyFrame = wire.ReplyFrame

// GetAudioReq fetches an audio object. IfDigestAbsent as in GetImageReq.
type GetAudioReq struct {
	ID             uint64
	IfDigestAbsent []byte
}

// GetAudioResp carries one AUDIO_OBJECTS_TABLE row with payload. Digest
// is the payload's content address (see GetImageResp).
type GetAudioResp struct {
	Filename string
	Sectors  []byte
	Digest   []byte
	Data     []byte
	// NotModified as in GetImageResp.
	NotModified bool
}

// GetCmpReq fetches a compressed stream, optionally truncated to the
// first MaxLayers layers (0 = all) — the multi-resolution transfer path:
// a low-bandwidth client asks for fewer layers and decodes a coarser
// image (Fig. 9).
type GetCmpReq struct {
	ID        uint64
	MaxLayers int
	// IfDigestAbsent as in GetImageReq. Only a full-stream fetch
	// (MaxLayers = 0) can match: the digest addresses the full stream,
	// and a truncated body is not the cached payload.
	IfDigestAbsent []byte
}

// GetCmpResp carries the stream header and the (possibly truncated)
// body. Digest is the content address of the FULL stored stream, not of
// the truncated body (a layer-truncated transfer has no stored digest).
// Digest, Header and Data may alias a pooled frame, as in GetImageResp.
type GetCmpResp struct {
	replyFrame
	Filename string
	Digest   []byte
	Header   []byte
	Data     []byte
	// NotModified as in GetImageResp (Header still carries the stream
	// header — only the body bytes are elided).
	NotModified bool
}

// PutImageTextsReq persists updated annotations into the image object.
type PutImageTextsReq struct {
	ID    uint64
	Texts string
}

// JoinRoomReq enters the named shared room around a document. The first
// joiner binds the room to DocID; later joiners may pass an empty DocID.
// With Resume set, the server first tries to revive a detached session
// for (User, Room), replaying only events with Seq greater than
// SinceSeq; if no such session survives, it falls back to a fresh join.
// Buffered says the client holds a media buffer, so the server's QoS
// loop may push prefetch payloads into it.
type JoinRoomReq struct {
	Room  string
	DocID string
	User  string

	Resume   bool
	SinceSeq uint64
	Buffered bool
}

// JoinRoomResp carries the document, the catch-up history, and the
// member's first presentation: View is an EvPresentation made against the
// empty view, under the id the member then holds, so every presentation
// pushed to it afterwards is a change against that id. Its Seq is newer
// than any the room issued before it. Resumed reports that a detached
// session was revived (History then holds only the missed events, and
// DocData is empty unless the replay is incomplete); Complete reports that
// History covers everything after SinceSeq.
type JoinRoomResp struct {
	DocData []byte
	History []room.Event
	View    room.Event

	Resumed  bool
	Complete bool
}

// MemberReq is the body of the requests that name only the room and the
// acting member.
type MemberReq struct {
	Room string
	User string
}

// LeaveRoomReq exits a room.
type LeaveRoomReq = MemberReq

// ChoiceReq records a presentation choice (empty Value retracts).
type ChoiceReq struct {
	Room     string
	User     string
	Variable string
	Value    string
}

// OperationReq applies a media operation per §4.2.
type OperationReq struct {
	Room       string
	User       string
	Component  string
	Op         string
	ActiveWhen string
	Private    bool
}

// OperationResp names the derived variable.
type OperationResp struct{ DerivedVar string }

// AnnotateReq writes a text or line element on an image object.
type AnnotateReq struct {
	Room           string
	User           string
	ObjectID       uint64
	Kind           int // image.AnnotationKind
	X1, Y1, X2, Y2 int
	Text           string
	Intensity      float64
}

// AnnotateResp returns the new element's id.
type AnnotateResp struct{ AnnotationID int }

// DeleteAnnotationReq removes an overlay element.
type DeleteAnnotationReq struct {
	Room         string
	User         string
	ObjectID     uint64
	AnnotationID int
}

// FreezeReq locks an object against edits by other partners.
type FreezeReq struct {
	Room     string
	User     string
	ObjectID uint64
}

// ReleaseReq lifts a freeze.
type ReleaseReq = FreezeReq

// ShareSearchReq propagates voice-search results to the room.
type ShareSearchReq struct {
	Room    string
	User    string
	Speaker bool // false = word search, true = speaker search
	Keyword string
	Hits    []voice.Hit
}

// ChatReq sends a free-text message to the room.
type ChatReq struct {
	Room string
	User string
	Text string
}

// HistoryReq replays buffered events newer than Since.
type HistoryReq struct {
	Room  string
	Since uint64
}

// HistoryResp carries the replayed events.
type HistoryResp struct{ Events []room.Event }

// BroadcastReq starts or stops a broadcast by the named member.
type BroadcastReq = MemberReq

// SaveMinutesReq persists the room's discussion results into the document
// and the image objects (the paper's "results of the discussions ... may
// be stored in the file").
type SaveMinutesReq = MemberReq

// SaveMinutesResp names the new minutes component.
type SaveMinutesResp struct{ Component string }

// StatsReq asks for the server's live metrics snapshot.
type StatsReq = wire.None

// MethodSummary is one method's request statistics: counters plus the
// latency distribution (mean and log-bucketed tail percentiles).
type MethodSummary struct {
	Requests uint64
	Errors   uint64
	Mean     time.Duration
	Max      time.Duration
	P50      time.Duration
	P90      time.Duration
	P99      time.Duration
}

// RoomStatus is one live room's gauges.
type RoomStatus struct {
	Name           string
	Members        int
	Detached       int
	QueuedEvents   int
	QueuedBytes    int64
	MaxQueueDepth  int
	BufferedEvents int
}

// StatsResp is the metrics snapshot: per-method latency summaries, the
// named monotonic counters (push.*, cache.*, session.*, wire.*), live
// gauges (wire.peers, wire.write_backlog — responses and prefetch pushes
// waiting for a connection's writer; queued room events are each room's
// QueuedEvents/QueuedBytes/MaxQueueDepth — cache.obj.bytes, rooms.*,
// go.goroutines), and per-room status.
type StatsResp struct {
	Methods  map[string]MethodSummary
	Counters map[string]uint64
	Gauges   map[string]int64
	Rooms    []RoomStatus
}

// TracesReq fetches recent slow/errored request traces. ID filters to
// one trace id (0 = no filter); Limit bounds the count (0 = all
// retained).
type TracesReq struct {
	ID    uint64
	Limit int
}

// TraceSpan is one timed section of a traced request.
type TraceSpan struct {
	Name  string
	Start time.Duration // offset from the request start
	Dur   time.Duration
}

// TraceInfo is one completed request trace from the server's ring.
type TraceInfo struct {
	ID     uint64
	Method string
	Peer   uint64
	Start  time.Time
	Total  time.Duration
	Err    string
	Spans  []TraceSpan
}

// TracesResp carries the matching traces, newest first.
type TracesResp struct{ Traces []TraceInfo }

// PrefetchPush carries one speculative payload pushed by the server's
// QoS loop ahead of demand. Digest is the payload's content address so
// the client can tag (and later verify) the buffered bytes; the client
// stores the payload only if it fits its buffer's free space.
type PrefetchPush struct {
	Room     string
	ObjectID uint64
	Digest   []byte
	Data     []byte
}
