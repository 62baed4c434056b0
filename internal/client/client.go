// Package client implements the client module of the paper (§3): it
// presents documents, forwards the viewer's interactions to the
// interaction server, and receives both direct responses and pushed room
// events. It also hosts the §4.4 client-side buffer: one media cache that
// fetches read and fill, and server prefetch pushes fill.
package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mmconf/internal/document"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/media/voice"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// connState tracks the client's connection lifecycle.
type connState int

const (
	stateActive connState = iota
	stateReconnecting
	stateClosed
)

// Client is one user's connection to the interaction server. Every move
// of that connection — the first dial, a redial after a drop
// (Options.Reconnect) and a redirect to a room's owning node — goes
// through connect, which resumes every joined room on the new connection
// from its last seen event sequence.
type Client struct {
	user string
	opts Options

	mu       sync.Mutex
	rpc      *wire.Client
	state    connState
	gen      uint64 // bumped per connect; stale supervisors stand down
	sessions map[string]*Session
	// joining holds, per room, the session of a Join still in flight. The
	// server pushes to a new member before the Join response is processed
	// — the join's own announcement and the change its reconfiguration
	// makes — and those pushes need the session's park and view as much as
	// any later one: a presentation that bypassed the session would break
	// the chain of changes.
	joining map[string]*Session

	closeCh   chan struct{}
	closeOnce sync.Once

	// The pushed-event stream: a small channel and, behind it, the
	// backlog a slow consumer builds up (see emit). evMu guards backlog
	// and draining, and orders concurrent emits.
	events   chan room.Event
	evMu     sync.Mutex
	backlog  []room.Event
	draining bool // drainBacklog is running; emits queue behind it

	// resolver is the endpoint set every connect dials through;
	// migrateMu serializes redirect-following connection migrations.
	resolver  *resolver
	migrateMu sync.Mutex

	attempts, successes, failures, gaveUp atomic.Uint64
	redirectsFollowed                     atomic.Uint64

	// buffer is the media buffer (see mediabuffer.go): nil until the first Join
	// with bufferBytes > 0, then shared by every session and fetch.
	buffer atomic.Pointer[mediaBuffer]
}

// eventQueueSize bounds the locally buffered pushed events: channel,
// backlog and the one event drainBacklog holds.
const eventQueueSize = 1024

// eventChanSize is the part of that bound allocated up front (a
// room.Event is 384 bytes): enough that a consumer keeping up with a
// burst of fan-out never sees the backlog path, small enough that an idle
// client does not pin a third of a megabyte.
const eventChanSize = 32

// Dial connects to the interaction server at addr as the given user,
// under the zero Options: a dropped connection is not redialed. A
// redirect moves the connection to the node it names (NewOverResolver).
func Dial(addr, user string) (*Client, error) {
	return NewOverResolver(NetDial, []string{addr}, user, Options{})
}

// NewOverDialer builds a client over a custom dial function (a
// netsim-faulted dialer in tests, or any tunneled transport). The
// initial connect happens synchronously; with opts.Reconnect, later
// drops redial through the same function. The function reaches one
// endpoint whatever a redirect names, so a redirect surfaces to the
// caller as a *wire.RedirectError.
func NewOverDialer(dial DialFunc, user string, opts Options) (*Client, error) {
	if dial == nil {
		return nil, fmt.Errorf("client: nil dial function")
	}
	return open(user, fixedEndpoint(dial), opts)
}

// open builds a client over the endpoint set r and connects it, trying
// each endpoint once.
func open(user string, r *resolver, opts Options) (*Client, error) {
	if user == "" {
		return nil, fmt.Errorf("client: empty user name")
	}
	opts.normalize()
	c := newClient(user, r, opts)
	var err error
	for range r.addrs {
		if err = c.connect(context.Background()); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("client: no endpoint reachable: %w", err)
}

func newClient(user string, r *resolver, opts Options) *Client {
	return &Client{
		user:     user,
		opts:     opts,
		resolver: r,
		sessions: make(map[string]*Session),
		joining:  make(map[string]*Session),
		events:   make(chan room.Event, eventChanSize),
		closeCh:  make(chan struct{}),
	}
}

// sessionFor returns the session a push for the room belongs to: the one
// whose Join is in flight (it is about to replace any other), or the
// joined one.
func (c *Client) sessionFor(roomName string) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.joining[roomName]; s != nil {
		return s
	}
	return c.sessions[roomName]
}

// onPush routes a pushed room event: events for a joined room are folded
// into the session and pass its delivery gate (exactly-once across
// reconnects), everything else flows straight through. A prefetch push
// carries one image: it is offered to the media buffer, where the next
// fetch of that image finds it, without surfacing on the event stream.
func (c *Client) onPush(method string, body wire.Body) {
	if method == proto.MPrefetchPush {
		var pp proto.PrefetchPush
		if err := body.Decode(&pp); err != nil {
			return
		}
		c.buffer.Load().file(objectKey{mediadb.ImageTable, pp.ObjectID}, pp.Digest, pp.Data, pushed)
		return
	}
	if method != proto.MEvent {
		return
	}
	// Decoded through the concrete method over a decoder that never
	// leaves this frame, not body.Decode: behind the BodyDecoder
	// interface the event would move to the heap, one more allocation
	// per push. From here it travels by value.
	var ev room.Event
	d := wire.NewDec(body.Data)
	if err := ev.DecodeBody(d); err != nil || d.Len() != 0 {
		return
	}
	if s := c.sessionFor(ev.Room); s != nil && !s.admit(ev) {
		return
	}
	c.emit(ev)
}

// emit hands an event to the local stream without ever blocking. While
// the consumer keeps up that is one send on the channel. When the channel
// is full the event joins the backlog, which drainBacklog feeds into the
// channel in order; with eventQueueSize events buffered the oldest is
// shed (History resynchronizes).
func (c *Client) emit(ev room.Event) {
	c.evMu.Lock()
	defer c.evMu.Unlock()
	if !c.draining {
		select {
		case c.events <- ev:
			return
		default:
		}
		c.draining = true
		go c.drainBacklog()
	}
	// One slot of the bound stays reserved for the event in drainBacklog's
	// hands, which neither length below counts.
	if len(c.events)+len(c.backlog) >= eventQueueSize-1 {
		select {
		case <-c.events: // the oldest there is
		default: // the consumer just emptied the channel
			c.popBacklog()
		}
	}
	c.backlog = append(c.backlog, ev)
}

func (c *Client) popBacklog() room.Event {
	ev := c.backlog[0]
	c.backlog[0] = room.Event{} // the array outlives the slot
	c.backlog = c.backlog[1:]
	return ev
}

// drainBacklog moves the backlog into the channel, oldest first, and
// exits once it is empty or the client closes; a closed client drops
// what is still spilled.
func (c *Client) drainBacklog() {
	for {
		c.evMu.Lock()
		select {
		case <-c.closeCh:
			c.backlog = nil
		default:
		}
		if len(c.backlog) == 0 {
			c.backlog, c.draining = nil, false
			c.evMu.Unlock()
			return
		}
		ev := c.popBacklog()
		c.evMu.Unlock()
		select {
		case c.events <- ev:
		case <-c.closeCh:
		}
	}
}

// User returns the client's user name.
func (c *Client) User() string { return c.user }

// Events returns the pushed room-event stream.
func (c *Client) Events() <-chan room.Event { return c.events }

// Close drops the connection and stops any reconnection. Server-side,
// the user's sessions detach and expire after the grace period.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	c.state = stateClosed
	rpc := c.rpc
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	if rpc != nil {
		return rpc.Close()
	}
	return nil
}

// ListDocuments returns stored document ids and titles.
func (c *Client) ListDocuments() (ids, titles []string, err error) {
	return c.ListDocumentsCtx(context.Background())
}

// ListDocumentsCtx is ListDocuments bounded by ctx.
func (c *Client) ListDocumentsCtx(ctx context.Context) (ids, titles []string, err error) {
	var resp proto.ListDocumentsResp
	if err := c.call(ctx, proto.MListDocuments, &proto.ListDocumentsReq{}, &resp); err != nil {
		return nil, nil, err
	}
	return resp.IDs, resp.Titles, nil
}

// Stats fetches the server's live metrics snapshot: per-method latency
// percentiles, named counters, gauges, and per-room status.
func (c *Client) Stats() (*proto.StatsResp, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (*proto.StatsResp, error) {
	var resp proto.StatsResp
	if err := c.call(ctx, proto.MStats, &proto.StatsReq{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Traces fetches recent slow/errored request traces from the server's
// ring, newest first. A non-zero id filters to that trace; limit <= 0
// returns all retained.
func (c *Client) Traces(id uint64, limit int) ([]proto.TraceInfo, error) {
	return c.TracesCtx(context.Background(), id, limit)
}

// TracesCtx is Traces bounded by ctx.
func (c *Client) TracesCtx(ctx context.Context, id uint64, limit int) ([]proto.TraceInfo, error) {
	var resp proto.TracesResp
	if err := c.call(ctx, proto.MTraces, &proto.TracesReq{ID: id, Limit: limit}, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// GetDocument fetches and decodes a document.
func (c *Client) GetDocument(docID string) (*document.Document, error) {
	return c.GetDocumentCtx(context.Background(), docID)
}

// GetDocumentCtx is GetDocument bounded by ctx.
func (c *Client) GetDocumentCtx(ctx context.Context, docID string) (*document.Document, error) {
	var resp proto.GetDocumentResp
	if err := c.call(ctx, proto.MGetDocument, &proto.GetDocumentReq{DocID: docID}, &resp); err != nil {
		return nil, err
	}
	return document.Unmarshal(resp.DocData)
}

// GetImage fetches an image object and decodes its raster. The raster
// is the decode's own, so the payload's frame goes back to the pool once
// it is decoded.
func (c *Client) GetImage(id uint64) (*image.Gray, string, error) {
	resp, err := c.getImageResp(id, true)
	if err != nil {
		return nil, "", err
	}
	g, err := image.Decode(resp.Data)
	resp.Release()
	if err != nil {
		return nil, "", err
	}
	return g, resp.Texts, nil
}

// GetImageBytes fetches an image object's raw payload, which is the
// caller's to keep.
func (c *Client) GetImageBytes(id uint64) ([]byte, error) {
	resp, err := c.getImageResp(id, false)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// getImageResp is the image fetch through the media buffer. With
// transient set the caller reads the payload only until it releases the
// response, so when no buffer files the payload the response takes a
// pooled frame (proto.GetImageResp's ReplyFrame).
func (c *Client) getImageResp(id uint64, transient bool) (*proto.GetImageResp, error) {
	var resp proto.GetImageResp
	b := c.buffer.Load()
	if transient && b == nil {
		resp.Pool()
	}
	data, err := b.fetch(objectKey{mediadb.ImageTable, id}, func(known []byte) (bool, []byte, []byte, error) {
		err := c.call(context.Background(), proto.MGetImage, &proto.GetImageReq{ID: id, IfDigestAbsent: known}, &resp)
		return resp.NotModified, resp.Digest, resp.Data, err
	})
	if err != nil {
		return nil, err
	}
	resp.Data = data
	return &resp, nil
}

// GetAudio fetches an audio object: PCM bytes plus segmentation metadata.
func (c *Client) GetAudio(id uint64) (pcm, sectors []byte, filename string, err error) {
	resp, err := c.getAudioResp(id)
	if err != nil {
		return nil, nil, "", err
	}
	return resp.Data, resp.Sectors, resp.Filename, nil
}

// getAudioResp is the audio fetch through the media buffer.
func (c *Client) getAudioResp(id uint64) (*proto.GetAudioResp, error) {
	var resp proto.GetAudioResp
	data, err := c.buffer.Load().fetch(objectKey{mediadb.AudioTable, id}, func(known []byte) (bool, []byte, []byte, error) {
		err := c.call(context.Background(), proto.MGetAudio, &proto.GetAudioReq{ID: id, IfDigestAbsent: known}, &resp)
		return resp.NotModified, resp.Digest, resp.Data, err
	})
	if err != nil {
		return nil, err
	}
	resp.Data = data
	return &resp, nil
}

// GetCmp fetches a multi-layer stream truncated to maxLayers (0 = all)
// and decodes it at that fidelity. The stream aliases the payload, and
// the payload's frame goes back to the pool once the stream is decoded.
func (c *Client) GetCmp(id uint64, maxLayers int) (*image.Gray, int, error) {
	resp, err := c.getCmpResp(id, maxLayers)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Release()
	stream, err := compress.Unmarshal(resp.Header, resp.Data)
	if err != nil {
		return nil, 0, err
	}
	g, err := stream.Decode(0)
	if err != nil {
		return nil, 0, err
	}
	return g, len(resp.Data), nil
}

// getCmpResp is the stream fetch. Only the untruncated fetch goes through
// the media buffer: the digest addresses the full stream. Its one caller
// decodes the payload and releases the response, so a payload no buffer
// files takes a pooled frame, as in getImageResp.
func (c *Client) getCmpResp(id uint64, maxLayers int) (*proto.GetCmpResp, error) {
	var b *mediaBuffer
	if maxLayers == 0 {
		b = c.buffer.Load()
	}
	var resp proto.GetCmpResp
	if b == nil {
		resp.Pool()
	}
	data, err := b.fetch(objectKey{mediadb.CmpTable, id}, func(known []byte) (bool, []byte, []byte, error) {
		err := c.call(context.Background(), proto.MGetCmp, &proto.GetCmpReq{ID: id, MaxLayers: maxLayers, IfDigestAbsent: known}, &resp)
		return resp.NotModified, resp.Digest, resp.Data, err
	})
	if err != nil {
		return nil, err
	}
	resp.Data = data
	return &resp, nil
}

// Session is the client's presence in one shared room.
type Session struct {
	client *Client
	Room   string
	docID  string // for resume: rebind the room if it must be recreated
	// Doc is the session's local copy of the document.
	Doc *document.Document
	// view is the latest presentation pushed or computed for this user,
	// in maps the session owns: a pushed presentation is applied to them
	// in place under mu, when it arrives (see view.go). viewID is the id the
	// server gave that view, which the next presentation is made against.
	mu     sync.Mutex
	view   document.View
	viewID uint64
	// resync is set when a pushed event carries the server's queue-
	// overflow hint (events were dropped; replay from History), and when
	// a reconnect could not replay the outage exactly.
	resync bool
	// arrived is the highest sequence pushed to this session, all of it
	// folded. lastSeq gates pushed-event delivery: events at or below it
	// already reached the stream, so replays across reconnects drop out.
	// resuming parks live pushes in pending while a join or resume is in
	// flight: they are made against the view its response carries.
	arrived  uint64
	lastSeq  uint64
	resuming bool
	pending  []room.Event
}

// admit folds a pushed event into the session and decides whether it
// reaches the client's stream. The fold comes first: what the stream
// sheds, the view already has. While a join or resume is in flight the
// event parks in pending instead, unfolded, until the response brings the
// view it is made against (settleLocked). Past eventQueueSize parked
// events only presentations still park: the view cannot skip one.
func (s *Session) admit(ev room.Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resuming {
		if len(s.pending) < eventQueueSize || ev.Kind == room.EvPresentation {
			s.pending = append(s.pending, ev)
		}
		return false
	}
	return s.admitLocked(ev)
}

func (s *Session) admitLocked(ev room.Event) bool {
	if ev.Seq > s.arrived {
		s.arrived = ev.Seq
		s.foldLocked(&ev)
	}
	if ev.Seq != 0 && ev.Seq <= s.lastSeq {
		return false
	}
	if ev.Seq != 0 {
		s.lastSeq = ev.Seq
	}
	return true
}

// releaseLocked passes events to the stream through admitLocked, in order.
// It emits under s.mu: a push racing the release must not overtake it
// (emit is non-blocking, so holding s.mu cannot deadlock).
func (s *Session) releaseLocked(evs ...room.Event) {
	for _, ev := range evs {
		if s.admitLocked(ev) {
			s.client.emit(ev)
		}
	}
}

// beginResume parks the session for a join or resume: live pushes buffer
// in pending until its response is folded, and the returned sequence is
// the replay cursor for a Resume request.
func (s *Session) beginResume() (since uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resuming = true
	s.pending = nil
	return s.lastSeq
}

// abortResume re-opens the delivery gate after a failed resume (budget
// exhausted or client closed), flushing parked events so the stream
// does not silently stall. A parked presentation made against the view a
// lost response carried does not fold, and flags the session.
func (s *Session) abortResume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := s.pending
	s.pending = nil
	s.resuming = false
	s.releaseLocked(pending...)
}

// resume parks the session, asks the server over call to revive its
// member from the last event the stream delivered, and folds the answer
// in: the document if one came, the gap if the outage cannot be replayed,
// then settleLocked. On an error the session stays parked: what follows
// is the caller's policy.
func (s *Session) resume(ctx context.Context, call func(context.Context, string, wire.BodyEncoder, any) error) error {
	var resp proto.JoinRoomResp
	if err := call(ctx, proto.MJoinRoom, &proto.JoinRoomReq{
		Room: s.Room, DocID: s.docID, User: s.client.user,
		Resume: true, SinceSeq: s.beginResume(), Buffered: s.client.buffer.Load() != nil,
	}, &resp); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !resp.Resumed || !resp.Complete {
		// The outage cannot be replayed exactly (session expired into a
		// fresh join, or the change buffer was trimmed): local state is
		// suspect, make the gap visible exactly like a queue overflow.
		s.resync = true
	}
	if !resp.Resumed && resp.View.Seq < s.lastSeq {
		// Fresh join into a room younger than our gate (a join's view is
		// newer than anything its room sent before): the room was
		// recreated and sequences restarted. Reset or we would swallow
		// every new event.
		s.lastSeq, s.arrived = 0, 0
	}
	if len(resp.DocData) > 0 {
		if doc, err := document.Unmarshal(resp.DocData); err == nil {
			s.Doc = doc
		}
	}
	s.settleLocked(&resp)
	return nil
}

// settleLocked folds a join or resume response into the session parked
// for it, and lets the stream have, through its gate, the history, the
// response's presentation and the parked pushes, in that order. The
// presentation is the whole view the member the server made for this
// connection holds, stamped after anything the member this connection
// replaced was sent: it folds after the history and sets arrived, so a
// straggler from before falls to that gate, and the parked pushes —
// changes against it, and what follows — fold in turn. Callers hold s.mu.
func (s *Session) settleLocked(resp *proto.JoinRoomResp) {
	s.releaseLocked(resp.History...)
	s.releaseLocked(resp.View)
	pending := s.pending
	s.pending, s.resuming = nil, false
	s.releaseLocked(pending...)
}

// LastSeq reports the highest event sequence delivered to this session's
// stream — the resume cursor a reconnect replays from.
func (s *Session) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Join enters a room around a document. The first Join with
// bufferBytes > 0 gives the client its media buffer of that size (see
// mediabuffer.go); every later session and fetch of the client shares it, and
// a later Join's bufferBytes changes nothing.
func (c *Client) Join(roomName, docID string, bufferBytes int64) (*Session, []room.Event, error) {
	return c.JoinCtx(context.Background(), roomName, docID, bufferBytes)
}

// JoinCtx is Join bounded by ctx.
func (c *Client) JoinCtx(ctx context.Context, roomName, docID string, bufferBytes int64) (*Session, []room.Event, error) {
	if bufferBytes > 0 && c.buffer.Load() == nil {
		// Before the call: the server may push a prefetch payload before
		// the response arrives, and it pushes each object once.
		c.buffer.CompareAndSwap(nil, newMediaBuffer(bufferBytes))
	}
	s := &Session{client: c, Room: roomName, docID: docID}
	// The session takes pushes from here on (see Client.joining), parked
	// until the response is folded; the reconnect supervisor does not know
	// it until it is joined.
	s.beginResume()
	c.mu.Lock()
	c.joining[roomName] = s
	c.mu.Unlock()
	var resp proto.JoinRoomResp
	err := c.call(ctx, proto.MJoinRoom, &proto.JoinRoomReq{
		Room: roomName, DocID: docID, User: c.user, Buffered: c.buffer.Load() != nil,
	}, &resp)
	var doc *document.Document
	if err == nil {
		doc, err = document.Unmarshal(resp.DocData)
	}
	if err == nil {
		s.mu.Lock()
		s.Doc = doc
		// The history goes back to the caller, not down the stream: seed
		// the gate past it.
		for _, ev := range resp.History {
			s.lastSeq = max(s.lastSeq, ev.Seq)
		}
		s.settleLocked(&resp)
		s.mu.Unlock()
	}
	c.mu.Lock()
	if c.joining[roomName] == s {
		delete(c.joining, roomName)
	}
	if err == nil {
		c.sessions[roomName] = s
	}
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return s, resp.History, nil
}

// User returns the user this session belongs to.
func (s *Session) User() string { return s.client.user }

// Choice sends a presentation selection for this user.
func (s *Session) Choice(variable, value string) error {
	return s.ChoiceCtx(context.Background(), variable, value)
}

// ChoiceCtx is Choice bounded by ctx.
func (s *Session) ChoiceCtx(ctx context.Context, variable, value string) error {
	return s.client.call(ctx, proto.MChoice, &proto.ChoiceReq{
		Room: s.Room, User: s.client.user, Variable: variable, Value: value,
	}, nil)
}

// Operation applies a media operation (§4.2) and returns the derived
// variable name.
func (s *Session) Operation(component, op, activeWhen string, private bool) (string, error) {
	return s.OperationCtx(context.Background(), component, op, activeWhen, private)
}

// OperationCtx is Operation bounded by ctx.
func (s *Session) OperationCtx(ctx context.Context, component, op, activeWhen string, private bool) (string, error) {
	var resp proto.OperationResp
	err := s.client.call(ctx, proto.MOperation, &proto.OperationReq{
		Room: s.Room, User: s.client.user,
		Component: component, Op: op, ActiveWhen: activeWhen, Private: private,
	}, &resp)
	return resp.DerivedVar, err
}

// AnnotateText writes a text element on an image object.
func (s *Session) AnnotateText(objectID uint64, x, y int, text string, intensity float64) (int, error) {
	var resp proto.AnnotateResp
	err := s.client.call(context.Background(), proto.MAnnotate, &proto.AnnotateReq{
		Room: s.Room, User: s.client.user, ObjectID: objectID,
		Kind: int(image.TextElement), X1: x, Y1: y, Text: text, Intensity: intensity,
	}, &resp)
	return resp.AnnotationID, err
}

// AnnotateLine writes a line element on an image object.
func (s *Session) AnnotateLine(objectID uint64, x1, y1, x2, y2 int, intensity float64) (int, error) {
	var resp proto.AnnotateResp
	err := s.client.call(context.Background(), proto.MAnnotate, &proto.AnnotateReq{
		Room: s.Room, User: s.client.user, ObjectID: objectID,
		Kind: int(image.LineElement), X1: x1, Y1: y1, X2: x2, Y2: y2, Intensity: intensity,
	}, &resp)
	return resp.AnnotationID, err
}

// DeleteAnnotation removes an overlay element.
func (s *Session) DeleteAnnotation(objectID uint64, annotationID int) error {
	return s.client.call(context.Background(), proto.MDeleteAnnotation, &proto.DeleteAnnotationReq{
		Room: s.Room, User: s.client.user, ObjectID: objectID, AnnotationID: annotationID,
	}, nil)
}

// Freeze locks an object against edits by other partners.
func (s *Session) Freeze(objectID uint64) error {
	return s.client.call(context.Background(), proto.MFreeze, &proto.FreezeReq{
		Room: s.Room, User: s.client.user, ObjectID: objectID,
	}, nil)
}

// Release lifts a freeze this user holds.
func (s *Session) Release(objectID uint64) error {
	return s.client.call(context.Background(), proto.MRelease, &proto.ReleaseReq{
		Room: s.Room, User: s.client.user, ObjectID: objectID,
	}, nil)
}

// ShareSearch publishes voice-search results to the room.
func (s *Session) ShareSearch(speaker bool, keyword string, hits []voice.Hit) error {
	return s.client.call(context.Background(), proto.MShareSearch, &proto.ShareSearchReq{
		Room: s.Room, User: s.client.user, Speaker: speaker, Keyword: keyword, Hits: hits,
	}, nil)
}

// Chat sends a free-text message to the room.
func (s *Session) Chat(text string) error {
	return s.ChatCtx(context.Background(), text)
}

// ChatCtx is Chat bounded by ctx.
func (s *Session) ChatCtx(ctx context.Context, text string) error {
	return s.client.call(ctx, proto.MChat, &proto.ChatReq{
		Room: s.Room, User: s.client.user, Text: text,
	}, nil)
}

// StartBroadcast takes the floor: every member mirrors this user's
// presentation until StopBroadcast.
func (s *Session) StartBroadcast() error {
	return s.client.call(context.Background(), proto.MBroadcastStart, &proto.BroadcastReq{
		Room: s.Room, User: s.client.user,
	}, nil)
}

// StopBroadcast releases the floor (presenter only).
func (s *Session) StopBroadcast() error {
	return s.client.call(context.Background(), proto.MBroadcastStop, &proto.BroadcastReq{
		Room: s.Room, User: s.client.user,
	}, nil)
}

// SaveMinutes persists the room's discussion results (transcript into the
// document, annotation overlays into the image objects) and returns the
// new minutes component's name.
func (s *Session) SaveMinutes() (string, error) {
	var resp proto.SaveMinutesResp
	err := s.client.call(context.Background(), proto.MSaveMinutes, &proto.SaveMinutesReq{
		Room: s.Room, User: s.client.user,
	}, &resp)
	return resp.Component, err
}

// History replays room events newer than since.
func (s *Session) History(since uint64) ([]room.Event, error) {
	return s.HistoryCtx(context.Background(), since)
}

// HistoryCtx is History bounded by ctx. A successful replay clears the
// session's resync flag: the returned events cover any gap the server's
// queue overflow opened.
func (s *Session) HistoryCtx(ctx context.Context, since uint64) ([]room.Event, error) {
	var resp proto.HistoryResp
	if err := s.client.call(ctx, proto.MHistory, &proto.HistoryReq{Room: s.Room, Since: since}, &resp); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.resync = false
	s.mu.Unlock()
	return resp.Events, nil
}

// Leave exits the room.
func (s *Session) Leave() error {
	return s.LeaveCtx(context.Background())
}

// LeaveCtx is Leave bounded by ctx. The session stops being resumed on
// reconnect whether or not the server acknowledged the leave.
func (s *Session) LeaveCtx(ctx context.Context) error {
	c := s.client
	c.mu.Lock()
	if c.sessions[s.Room] == s {
		delete(c.sessions, s.Room)
	}
	c.mu.Unlock()
	return c.call(ctx, proto.MLeaveRoom, &proto.LeaveRoomReq{
		Room: s.Room, User: s.client.user,
	}, nil)
}
