package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mmconf/internal/core"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// roomState binds a live room to its document id.
type roomState struct {
	room  *room.Room
	docID string
	doc   *document.Document
	// dropped is set by DropRoom before it closes the room: a member
	// stream that ends on a dropped room disconnects its connection, so
	// the client reconnects and lands on the room's new owner.
	dropped atomic.Bool
}

// membership is one connection's presence in one room, and the one
// record the server keeps of it. It is the connection's slot for the
// room (peerSessions), so a request on it reaches the room it joined
// without the room table, and never a later room built under the same
// name. Once bound to the member the room admitted, it is the queue the
// connection's writer drains (wire.Source) and the unit the QoS loop
// measures and tunes.
//
// A membership owns no goroutine: an event goes from the member's queue
// to the socket's batch on the writer's, and the member queue is the one
// place its backlog sits. A writer blocked in a socket write stops
// draining, the queue fills, and the room sheds its oldest and flags
// Resync.
type membership struct {
	s        *Server
	peer     *wire.Peer
	sessions *peerSessions
	rs       *roomState
	user     string
	// buffered says the client holds a media buffer for the QoS loop's
	// prefetch pushes.
	buffered bool
	// member is the member the room admitted: nil in a slot whose join
	// is in flight, set by attach before its stream has a reader.
	member *room.Member
	// ev is received into again and again. EncodeShared hands its address
	// to an interface, which puts it on the heap: here that is once per
	// membership, as a local of Drain it would be once per wake-up.
	ev room.Event

	// The QoS loop's state, written by its goroutine only: level (under
	// the loop's lock, which its gauges read under) starts at High, the
	// tuning variable's unconditional preference; pushed and pushedBytes
	// are the images prefetched into the client's buffer so far.
	level       qos.Level
	pushed      map[uint64]bool
	pushedBytes int64
}

// --- room lookup and membership ---

// roomFor returns (creating on demand) the named room bound to docID.
// The table's write lock is held across the build, so concurrent first
// joiners race to a single room and a restored log is consumed once.
func (s *Server) roomFor(name, docID string) (*roomState, error) {
	rs, ok := s.lookupRoom(name)
	if !ok {
		if docID == "" {
			return nil, fmt.Errorf("server: room %q does not exist; first joiner must name a document", name)
		}
		s.roomsMu.Lock()
		defer s.roomsMu.Unlock()
		if rs, ok = s.rooms[name]; !ok {
			built, err := s.buildRoom(name, docID)
			if err != nil {
				return nil, err
			}
			s.rooms[name] = built
			return built, nil
		}
		// Another joiner won the race; fall through to the binding check.
	}
	if docID != "" && rs.docID != docID {
		return nil, fmt.Errorf("server: room %q is bound to document %q, not %q", name, rs.docID, docID)
	}
	return rs, nil
}

// lookupRoom returns the named room, if live.
func (s *Server) lookupRoom(name string) (*roomState, bool) {
	s.roomsMu.RLock()
	rs, ok := s.rooms[name]
	s.roomsMu.RUnlock()
	return rs, ok
}

// liveRooms snapshots the room table, so a caller ranges over it without
// the lock held and may block on room locks.
func (s *Server) liveRooms() []*roomState {
	s.roomsMu.RLock()
	defer s.roomsMu.RUnlock()
	out := make([]*roomState, 0, len(s.rooms))
	for _, rs := range s.rooms {
		out = append(out, rs)
	}
	return out
}

// buildRoom fetches the document and constructs a live room around it.
func (s *Server) buildRoom(name, docID string) (*roomState, error) {
	doc, err := s.db.GetDocument(docID)
	if err != nil {
		return nil, err
	}
	// Extend the document's preference network with the bandwidth tuning
	// variable (§4.4's automatic template extension) so per-member
	// measured levels can re-rank resolutions. Documents with nothing to
	// degrade (no component offers at least two visible forms) are left
	// untouched.
	if !doc.Prefs.HasVariable(core.BandwidthVariable) {
		if tpl := core.AutoBandwidthTemplates(doc, 0); len(tpl) > 0 {
			if err := core.AddBandwidthTuning(doc, tpl); err != nil {
				return nil, fmt.Errorf("server: bandwidth tuning for %s: %w", docID, err)
			}
		}
	}
	r, err := room.New(name, doc)
	if err != nil {
		return nil, err
	}
	r.OnQueueDrop(func(string) { s.ctr.queueDrops.Add(1) })
	r.SetGrace(s.grace)
	// Cluster wiring: a room moving here after failover restores the
	// replicated log before any member joins; the tap reports every
	// subsequent advance, which the node streams to the room's standby.
	if s.cluster != nil {
		if l, ok := s.cluster.RoomSeed(name); ok {
			if err := r.Restore(l); err != nil {
				return nil, err
			}
		}
		r.SetReplicator(func() { s.cluster.RoomTap(name) })
	}
	// Safe to enable: membership.Drain refunds every delivered event
	// via member.Consumed.
	r.SetPushBudget(s.pushBudget)
	r.OnSessionExpire(func(string) { s.ctr.sessionExpired.Add(1) })
	return &roomState{room: r, docID: docID, doc: doc}, nil
}

// peerSessions is a connection's room memberships, keyed by room name.
// Requests on one connection dispatch concurrently, so the map carries
// its own lock.
type peerSessions struct {
	mu    sync.Mutex
	rooms map[string]*membership
}

// peerSessionsKey stores a connection's membership table in its peer
// meta.
const peerSessionsKey = "sessions"

// sessionsOf returns the peer's membership table, making it on the
// peer's first room request.
func sessionsOf(p *wire.Peer) *peerSessions {
	if ps, ok := p.Meta(peerSessionsKey); ok {
		return ps.(*peerSessions)
	}
	ps := &peerSessions{rooms: make(map[string]*membership)}
	return p.MetaSetDefault(peerSessionsKey, ps).(*peerSessions)
}

// reserve takes the connection's slot for mb's room before the room is
// touched, so a connection that already holds it is refused (false) with
// the room unchanged. The slot carries no member until attach.
func (ps *peerSessions) reserve(mb *membership) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.rooms[mb.rs.room.Name]; dup {
		return false
	}
	ps.rooms[mb.rs.room.Name] = mb
	return true
}

func (ps *peerSessions) lookup(room string) (*membership, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	mb, ok := ps.rooms[room]
	return mb, ok
}

func (ps *peerSessions) drop(room string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.rooms, room)
}

func (s *Server) handleJoinRoom(ctx context.Context, p *wire.Peer, req *proto.JoinRoomReq) (*proto.JoinRoomResp, error) {
	if req.User == "" {
		return nil, fmt.Errorf("server: join needs a user name")
	}
	rs, err := s.roomFor(req.Room, req.DocID)
	if err != nil {
		return nil, err
	}
	sessions := sessionsOf(p)
	mb := &membership{s: s, peer: p, sessions: sessions, rs: rs, user: req.User, buffered: req.Buffered, level: qos.High}
	if !sessions.reserve(mb) {
		return nil, fmt.Errorf("server: this connection already joined room %q", req.Room)
	}
	var (
		member   *room.Member
		history  []room.Event
		view     room.Event
		resumed  bool
		complete = true
	)
	if req.Resume {
		m, missed, v, comp, rerr := rs.room.Resume(ctx, req.User, req.SinceSeq)
		switch {
		case rerr == nil:
			member, history, view = m, missed, v
			resumed, complete = true, comp
			s.ctr.sessionResumed.Add(1)
			s.ctr.reconnectResumes.Add(1)
		case errors.Is(rerr, room.ErrNoSession):
			// The detached session expired (or never existed): fall back
			// to a fresh join so the reconnecting client still lands in
			// the room, just without replay continuity.
			s.ctr.reconnectRejoins.Add(1)
		default:
			sessions.drop(req.Room)
			return nil, rerr
		}
	}
	if member == nil {
		member, history, view, err = rs.room.Join(ctx, req.User)
		if err != nil {
			sessions.drop(req.Room)
			return nil, err
		}
	}
	mb.attach(member)
	resp := &proto.JoinRoomResp{History: history, View: view, Resumed: resumed, Complete: complete}
	// A complete resume needs no document: the client's copy is still
	// current and the missed events carry every change. Fresh joins and
	// gappy resumes get the full snapshot.
	if !resumed || !complete {
		docData, hit, err := rs.room.DocSnapshot()
		if err != nil {
			// Unwind the join: without this the member would stay in the
			// room, and its source on the writer, on the marshal error path.
			sessions.drop(req.Room)
			_ = rs.room.Leave(req.User)
			return nil, err
		}
		if hit {
			s.ctr.docCacheHits.Add(1)
		} else {
			s.ctr.docCacheMisses.Add(1)
		}
		resp.DocData = docData
	}
	return resp, nil
}

// attach binds the slot to the member the room admitted and puts its
// event stream on the connection's writer, which pushes it to the client
// until the stream closes or the connection stops taking it, and the
// membership under QoS control.
func (mb *membership) attach(member *room.Member) {
	mb.member = member
	mb.s.sources.Add(1)
	mb.s.qos.add(mb)
	mb.member.SetNotify(mb.peer.Kick)
	mb.peer.Attach(mb)
	mb.peer.Kick() // the join's own events were queued before the hook was set
}

// Drain pushes what the member's queue holds, at most one queue's worth
// a call so a room producing as fast as the writer drains cannot keep the
// batch from its flush. Room broadcast events carry a shared memoized
// encoding, so an N-member fan-out encodes each event once and every
// other member's drain pushes the same bytes; so does a presentation,
// across the members of one evidence class that hold the same view (a
// member's own whole view or resync copy still encodes individually).
// The shared payload rides the writev batch by reference: zero copies
// between the encode and the socket.
func (mb *membership) Drain(push func(method string, payload []byte)) (open bool) {
	events := mb.member.Events()
	for n := cap(events); n > 0; n-- {
		select {
		case mb.ev, open = <-events:
		default:
			return true
		}
		if !open {
			// A stream that DropRoom ended disconnects the connection, so
			// its client reconnects and finds the room's new owner. A
			// member that left first, or whose session moved to another
			// connection, is no longer the connection's membership and
			// keeps its connection.
			if mb.rs.dropped.Load() {
				if cur, ok := mb.sessions.lookup(mb.rs.room.Name); ok && cur == mb {
					_ = mb.peer.Close()
				}
			}
			mb.detach()
			return false
		}
		// Refund the event's push-budget charge: once it is off the
		// queue the room no longer holds it for this member.
		mb.member.Consumed(mb.ev)
		payload, encoded := mb.ev.EncodeShared()
		mb.s.ctr.fanoutEvents.Add(1)
		if encoded {
			mb.s.ctr.fanoutEncodes.Add(1)
		} else {
			mb.s.ctr.encodesSaved.Add(1)
		}
		push(proto.MEvent, payload)
	}
	mb.peer.Kick() // stopped at the bound, not at an empty queue
	return true
}

// Abandon runs when the writer is gone with the stream still open: the
// client is unreachable, so detach the session — a reconnecting client
// can resume it within the grace period, after which it expires into a
// real leave.
func (mb *membership) Abandon() {
	mb.sessions.drop(mb.rs.room.Name)
	if mb.rs.room.Detach(mb.member) {
		mb.s.ctr.sessionDetached.Add(1)
	}
	// Detach closed the channel with events possibly still queued; drain
	// them so their push-budget charges are refunded — otherwise the
	// abandoned member reads as phantom queue pressure to the QoS loop
	// and the gauges.
	mb.member.DrainRefund()
	mb.detach()
}

// detach ends the membership's accounting; it runs once, from whichever
// of Drain and Abandon ended its stream.
func (mb *membership) detach() {
	mb.s.qos.remove(mb)
	mb.s.sources.Done()
}

func (s *Server) handleLeaveRoom(ctx context.Context, p *wire.Peer, req *proto.LeaveRoomReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	sessionsOf(p).drop(req.Room)
	return nil, rs.room.Leave(req.User)
}

// memberRoom returns the room the calling connection joined as user
// under roomName. It reads the connection's own membership table only: a
// room dropped since refuses the request itself (it has no members), so
// a room rebuilt under the same name never sees it.
func memberRoom(p *wire.Peer, roomName, user string) (*roomState, error) {
	mb, ok := sessionsOf(p).lookup(roomName)
	if !ok || mb.user != user {
		return nil, fmt.Errorf("server: this connection is not %q in room %q", user, roomName)
	}
	return mb.rs, nil
}

// --- room methods ---

func (s *Server) handleChoice(ctx context.Context, p *wire.Peer, req *proto.ChoiceReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.Choice(ctx, req.User, req.Variable, req.Value)
}

func (s *Server) handleOperation(ctx context.Context, p *wire.Peer, req *proto.OperationReq) (*proto.OperationResp, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	derived, err := rs.room.Operation(ctx, req.User, req.Component, req.Op, req.ActiveWhen, req.Private)
	if err != nil {
		return nil, err
	}
	return &proto.OperationResp{DerivedVar: derived}, nil
}

func (s *Server) handleAnnotate(ctx context.Context, p *wire.Peer, req *proto.AnnotateReq) (*proto.AnnotateResp, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	id, err := rs.room.Annotate(req.User, req.ObjectID, image.AnnotationKind(req.Kind),
		req.X1, req.Y1, req.X2, req.Y2, req.Text, req.Intensity)
	if err != nil {
		return nil, err
	}
	return &proto.AnnotateResp{AnnotationID: id}, nil
}

func (s *Server) handleDeleteAnnotation(ctx context.Context, p *wire.Peer, req *proto.DeleteAnnotationReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.DeleteAnnotation(req.User, req.ObjectID, req.AnnotationID)
}

func (s *Server) handleFreeze(ctx context.Context, p *wire.Peer, req *proto.FreezeReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.Freeze(req.User, req.ObjectID)
}

func (s *Server) handleRelease(ctx context.Context, p *wire.Peer, req *proto.ReleaseReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.Release(req.User, req.ObjectID)
}

func (s *Server) handleShareSearch(ctx context.Context, p *wire.Peer, req *proto.ShareSearchReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	kind := room.EvWordSearch
	if req.Speaker {
		kind = room.EvSpeakerSearch
	}
	return nil, rs.room.ShareSearch(req.User, kind, req.Keyword, req.Hits)
}

func (s *Server) handleChat(ctx context.Context, p *wire.Peer, req *proto.ChatReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.Chat(req.User, req.Text)
}

func (s *Server) handleHistory(ctx context.Context, p *wire.Peer, req *proto.HistoryReq) (*proto.HistoryResp, error) {
	rs, ok := s.lookupRoom(req.Room)
	if !ok {
		return nil, fmt.Errorf("server: no room %q", req.Room)
	}
	return &proto.HistoryResp{Events: rs.room.History(req.Since)}, nil
}

func (s *Server) handleBroadcastStart(ctx context.Context, p *wire.Peer, req *proto.BroadcastReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.StartBroadcast(req.User)
}

func (s *Server) handleBroadcastStop(ctx context.Context, p *wire.Peer, req *proto.BroadcastReq) (*wire.None, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	return nil, rs.room.StopBroadcast(req.User)
}

// handleSaveMinutes persists the discussion's durable results: the
// transcript becomes a new document component (stored with the document),
// and each image object's current annotation overlay is written into its
// FLD_TEXTS column.
func (s *Server) handleSaveMinutes(ctx context.Context, p *wire.Peer, req *proto.SaveMinutesReq) (*proto.SaveMinutesResp, error) {
	rs, err := memberRoom(p, req.Room, req.User)
	if err != nil {
		return nil, err
	}
	minutes := rs.room.Minutes()
	component, err := rs.room.AddMinutesComponent(req.User, minutes.Transcript())
	if err != nil {
		return nil, err
	}
	for objectID, anns := range minutes.Annotations {
		data, err := image.MarshalAnnotations(anns)
		if err != nil {
			return nil, err
		}
		// Only image objects carry a FLD_TEXTS column: marks on any
		// other kind of object are not persisted. A failed write is
		// not that case and must not read as a successful save.
		if err := s.db.UpdateImageTexts(objectID, string(data)); err != nil && !errors.Is(err, mediadb.ErrNoObject) {
			return nil, err
		}
	}
	if err := s.db.PutDocument(rs.doc); err != nil {
		return nil, err
	}
	return &proto.SaveMinutesResp{Component: component}, nil
}
