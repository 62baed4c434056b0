package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mmconf/internal/core"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// roomState binds a live room to its document id.
type roomState struct {
	room  *room.Room
	docID string
	doc   *document.Document
}

// membership tracks one peer's presence in one room.
type membership struct {
	room   string
	user   string
	member *room.Member
}

// --- room lookup and membership ---

// roomFor returns (creating on demand) the named room bound to docID.
func (s *Server) roomFor(name, docID string) (*roomState, error) {
	rs, ok := s.reg.get(name)
	if !ok {
		if docID == "" {
			return nil, fmt.Errorf("server: room %q does not exist; first joiner must name a document", name)
		}
		var created bool
		var err error
		rs, created, err = s.reg.getOrCreate(name, func() (*roomState, error) {
			return s.buildRoom(name, docID)
		})
		if err != nil {
			return nil, err
		}
		if created {
			return rs, nil
		}
		// Another joiner won the race; fall through to the binding check.
	}
	if docID != "" && rs.docID != docID {
		return nil, fmt.Errorf("server: room %q is bound to document %q, not %q", name, rs.docID, docID)
	}
	return rs, nil
}

// buildRoom fetches the document and constructs a live room around it.
func (s *Server) buildRoom(name, docID string) (*roomState, error) {
	doc, err := s.db.GetDocument(docID)
	if err != nil {
		return nil, err
	}
	// With the adaptive loop on, extend the document's preference network
	// with the bandwidth tuning variable (§4.4's automatic template
	// extension) so per-member measured levels can re-rank resolutions.
	// Documents with nothing to degrade (no component offers at least two
	// visible forms) are left untouched.
	if s.qos != nil && !doc.Prefs.HasVariable(core.BandwidthVariable) {
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
	r.OnQueueDrop(func(string) { s.stats.Add(CounterQueueDrops, 1) })
	r.SetGrace(s.grace)
	// Cluster wiring: a room moving here after failover restores the
	// replicated log before any member joins; the tap reports every
	// subsequent advance, which the node streams to the room's standby.
	if s.roomSeed != nil {
		if snap, ok := s.roomSeed(name); ok {
			if err := r.Restore(snap.Events, snap.Seq, snap.Trimmed); err != nil {
				return nil, err
			}
		}
	}
	if s.roomTap != nil {
		r.SetReplicator(func() { s.roomTap(name) })
	}
	// Safe to enable: memberSource.Drain refunds every delivered event
	// via member.Consumed.
	r.SetPushBudget(s.pushBudget)
	r.OnSessionExpire(func(string) { s.stats.Add(CounterSessionExpired, 1) })
	// Register base rasters for annotation rendering where available.
	for _, c := range doc.Components() {
		for _, pres := range c.Presentations {
			if pres.ObjectID == 0 || pres.Kind != document.KindImage {
				continue
			}
			if img, err := s.db.GetImage(pres.ObjectID); err == nil {
				if raster, err := image.Decode(img.Data); err == nil {
					r.RegisterRaster(pres.ObjectID, raster)
				}
			}
		}
	}
	return &roomState{room: r, docID: docID, doc: doc}, nil
}

// peerSessions is a connection's room memberships, keyed by room name.
// Requests on one connection dispatch concurrently, so the map carries
// its own lock.
type peerSessions struct {
	mu    sync.Mutex
	rooms map[string]*membership
}

// sessionsOf returns the peer's membership table, creating it if needed.
func sessionsOf(p *wire.Peer) *peerSessions {
	return p.MetaSetDefault("sessions", &peerSessions{rooms: make(map[string]*membership)}).(*peerSessions)
}

// reserve takes the connection's slot for a room before the room is
// touched, so a connection that already holds it is refused (nil) with the
// room unchanged. The slot carries no member until bind.
func (ps *peerSessions) reserve(room, user string) *membership {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.rooms[room]; dup {
		return nil
	}
	mb := &membership{room: room, user: user}
	ps.rooms[room] = mb
	return mb
}

// bind fills a reserved slot with the member the room admitted.
func (ps *peerSessions) bind(mb *membership, member *room.Member) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	mb.member = member
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

// snapshot copies the bound memberships; a slot whose join is still in
// flight has no member yet and is left out.
func (ps *peerSessions) snapshot() []membership {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]membership, 0, len(ps.rooms))
	for _, mb := range ps.rooms {
		if mb.member != nil {
			out = append(out, *mb)
		}
	}
	return out
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
	mb := sessions.reserve(req.Room, req.User)
	if mb == nil {
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
			s.stats.Add(CounterSessionResumed, 1)
			s.stats.Add(CounterReconnectResumes, 1)
		case errors.Is(rerr, room.ErrNoSession):
			// The detached session expired (or never existed): fall back
			// to a fresh join so the reconnecting client still lands in
			// the room, just without replay continuity.
			s.stats.Add(CounterReconnectRejoins, 1)
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
	sessions.bind(mb, member)
	s.attachMember(p, sessions, rs, member)
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
			s.stats.Add(CounterDocCacheHits, 1)
		} else {
			s.stats.Add(CounterDocCacheMisses, 1)
		}
		resp.DocData = docData
	}
	return resp, nil
}

// memberSource is one membership on its connection's writer: the queue
// the writer drains (wire.Source) when the room kicks it. A membership
// owns no goroutine — an event goes from the member's queue to the
// socket's batch on the writer's — and the member queue is the one place
// its backlog sits: a writer blocked in a socket write stops draining,
// the queue fills, and the room sheds its oldest and flags Resync.
type memberSource struct {
	s        *Server
	peer     *wire.Peer
	sessions *peerSessions
	rs       *roomState
	member   *room.Member
	// ev is received into again and again. EncodeShared hands its address
	// to an interface, which puts it on the heap: here that is once per
	// membership, as a local of Drain it would be once per wake-up.
	ev room.Event
}

// attachMember puts the member's event stream on p's writer, which
// pushes it to the client until the stream closes or the connection
// stops taking it.
func (s *Server) attachMember(p *wire.Peer, sessions *peerSessions, rs *roomState, member *room.Member) {
	s.sources.Add(1)
	if s.qos != nil {
		s.qos.register(p, rs, rs.room.Name, member.Name, member)
	}
	member.SetNotify(p.Kick)
	p.Attach(&memberSource{s: s, peer: p, sessions: sessions, rs: rs, member: member})
	p.Kick() // the join's own events were queued before the hook was set
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
func (src *memberSource) Drain(push func(method string, payload []byte)) (open bool) {
	events := src.member.Events()
	for n := cap(events); n > 0; n-- {
		select {
		case src.ev, open = <-events:
		default:
			return true
		}
		if !open {
			src.detach()
			return false
		}
		// Refund the event's push-budget charge: once it is off the
		// queue the room no longer holds it for this member.
		src.member.Consumed(src.ev)
		payload, encoded := src.ev.EncodeShared()
		src.s.stats.Add(CounterFanoutEvents, 1)
		if encoded {
			src.s.stats.Add(CounterFanoutEncodes, 1)
		} else {
			src.s.stats.Add(CounterEncodesSaved, 1)
		}
		push(proto.MEvent, payload)
	}
	src.peer.Kick() // stopped at the bound, not at an empty queue
	return true
}

// Abandon runs when the writer is gone with the stream still open: the
// client is unreachable, so detach the session — a reconnecting client
// can resume it within the grace period, after which it expires into a
// real leave.
func (src *memberSource) Abandon() {
	src.sessions.drop(src.rs.room.Name)
	if src.rs.room.Detach(src.member) {
		src.s.stats.Add(CounterSessionDetached, 1)
	}
	// Detach closed the channel with events possibly still queued; drain
	// them so their push-budget charges are refunded — otherwise the
	// abandoned member reads as phantom queue pressure to the QoS loop
	// and the gauges.
	src.member.DrainRefund()
	src.detach()
}

// detach ends the source's accounting; it runs once, from whichever of
// Drain and Abandon ended it.
func (src *memberSource) detach() {
	if src.s.qos != nil {
		src.s.qos.unregister(src.member)
	}
	src.s.sources.Done()
}

func (s *Server) handleLeaveRoom(ctx context.Context, p *wire.Peer, req *proto.LeaveRoomReq) (*wire.None, error) {
	sessions := sessionsOf(p)
	mb, ok := sessions.lookup(req.Room)
	if !ok || mb.user != req.User {
		return nil, fmt.Errorf("server: this connection is not %q in room %q", req.User, req.Room)
	}
	sessions.drop(req.Room)
	rs, ok := s.reg.get(req.Room)
	if !ok {
		return nil, fmt.Errorf("server: no room %q", req.Room)
	}
	return nil, rs.room.Leave(req.User)
}

// evictPeer detaches a disconnected client's sessions in every room it
// had joined: each stays resumable for the grace period, then expires
// into a real leave.
func (s *Server) evictPeer(p *wire.Peer) {
	for _, mb := range sessionsOf(p).snapshot() {
		if rs, ok := s.reg.get(mb.room); ok {
			if rs.room.Detach(mb.member) {
				s.stats.Add(CounterSessionDetached, 1)
			}
		}
	}
	if s.onPeerClose != nil {
		s.onPeerClose(p)
	}
}

// withMembership validates that the calling connection owns the claimed
// (room, user) pair, then runs fn on the live room.
func (s *Server) withMembership(p *wire.Peer, roomName, user string, fn func(*room.Room) error) error {
	mb, ok := sessionsOf(p).lookup(roomName)
	if !ok || mb.user != user {
		return fmt.Errorf("server: this connection is not %q in room %q", user, roomName)
	}
	rs, ok := s.reg.get(roomName)
	if !ok {
		return fmt.Errorf("server: no room %q", roomName)
	}
	return fn(rs.room)
}

// --- room methods ---

func (s *Server) handleChoice(ctx context.Context, p *wire.Peer, req *proto.ChoiceReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.Choice(ctx, req.User, req.Variable, req.Value)
	})
}

func (s *Server) handleOperation(ctx context.Context, p *wire.Peer, req *proto.OperationReq) (*proto.OperationResp, error) {
	var derived string
	err := s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		var err error
		derived, err = r.Operation(ctx, req.User, req.Component, req.Op, req.ActiveWhen, req.Private)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &proto.OperationResp{DerivedVar: derived}, nil
}

func (s *Server) handleAnnotate(ctx context.Context, p *wire.Peer, req *proto.AnnotateReq) (*proto.AnnotateResp, error) {
	var id int
	err := s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		var err error
		id, err = r.Annotate(req.User, req.ObjectID, image.AnnotationKind(req.Kind),
			req.X1, req.Y1, req.X2, req.Y2, req.Text, req.Intensity)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &proto.AnnotateResp{AnnotationID: id}, nil
}

func (s *Server) handleDeleteAnnotation(ctx context.Context, p *wire.Peer, req *proto.DeleteAnnotationReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.DeleteAnnotation(req.User, req.ObjectID, req.AnnotationID)
	})
}

func (s *Server) handleFreeze(ctx context.Context, p *wire.Peer, req *proto.FreezeReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.Freeze(req.User, req.ObjectID)
	})
}

func (s *Server) handleRelease(ctx context.Context, p *wire.Peer, req *proto.ReleaseReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.Release(req.User, req.ObjectID)
	})
}

func (s *Server) handleShareSearch(ctx context.Context, p *wire.Peer, req *proto.ShareSearchReq) (*wire.None, error) {
	kind := room.EvWordSearch
	if req.Speaker {
		kind = room.EvSpeakerSearch
	}
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.ShareSearch(req.User, kind, req.Keyword, req.Hits)
	})
}

func (s *Server) handleChat(ctx context.Context, p *wire.Peer, req *proto.ChatReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.Chat(req.User, req.Text)
	})
}

func (s *Server) handleHistory(ctx context.Context, p *wire.Peer, req *proto.HistoryReq) (*proto.HistoryResp, error) {
	rs, ok := s.reg.get(req.Room)
	if !ok {
		return nil, fmt.Errorf("server: no room %q", req.Room)
	}
	return &proto.HistoryResp{Events: rs.room.History(req.Since)}, nil
}

func (s *Server) handleBroadcastStart(ctx context.Context, p *wire.Peer, req *proto.BroadcastReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.StartBroadcast(req.User)
	})
}

func (s *Server) handleBroadcastStop(ctx context.Context, p *wire.Peer, req *proto.BroadcastReq) (*wire.None, error) {
	return nil, s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		return r.StopBroadcast(req.User)
	})
}

// handleSaveMinutes persists the discussion's durable results: the
// transcript becomes a new document component (stored with the document),
// and each image object's current annotation overlay is written into its
// FLD_TEXTS column.
func (s *Server) handleSaveMinutes(ctx context.Context, p *wire.Peer, req *proto.SaveMinutesReq) (*proto.SaveMinutesResp, error) {
	var component string
	err := s.withMembership(p, req.Room, req.User, func(r *room.Room) error {
		minutes := r.Minutes()
		name, err := r.AddMinutesComponent(req.User, minutes.Transcript())
		if err != nil {
			return err
		}
		component = name
		for objectID, anns := range minutes.Annotations {
			data, err := image.MarshalAnnotations(anns)
			if err != nil {
				return err
			}
			// Only image objects carry a FLD_TEXTS column: marks on any
			// other kind of object are not persisted. A failed write is
			// not that case and must not read as a successful save.
			if err := s.db.UpdateImageTexts(objectID, string(data)); err != nil && !errors.Is(err, mediadb.ErrNoObject) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs, ok := s.reg.get(req.Room)
	if !ok {
		return nil, fmt.Errorf("server: no room %q", req.Room)
	}
	if err := s.db.PutDocument(rs.doc); err != nil {
		return nil, err
	}
	return &proto.SaveMinutesResp{Component: component}, nil
}
