// Package server implements the interaction server of the paper (§3,
// §5.3): it serves multimedia objects and documents out of the database
// server, manages the shared rooms, keeps track of user actions, hands
// them to the presentation module, and propagates every change to all
// clients in the room over the wire layer's push channel.
//
// Requests flow through the wire package's typed pipeline: every method
// registers through wire.Typed (which owns unmarshal/marshal), a default
// interceptor chain provides stats, panic recovery, per-request deadlines
// and slow-request logging, and the per-request context reaches the room
// entry points so work for a dead or impatient client is abandoned.
// Rooms live in a sharded registry so traffic in different rooms never
// contends on a single lock.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/bytecache"
	"mmconf/internal/core"
	"mmconf/internal/document"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Options tunes the request pipeline. The zero value selects the
// defaults noted on each field.
type Options struct {
	// RequestTimeout bounds every handler (default 30s; negative
	// disables the deadline entirely).
	RequestTimeout time.Duration
	// MethodTimeouts overrides RequestTimeout per method name.
	MethodTimeouts map[string]time.Duration
	// SlowThreshold is the slow-request log bar (default 250ms).
	SlowThreshold time.Duration
	// Logf receives slow-request reports (default log.Printf).
	Logf func(format string, args ...any)
	// RegistryShards sizes the room table (default 32).
	RegistryShards int
	// CacheBytes bounds the cache of store-backed media payloads, keyed
	// by content digest (default 64 MiB; negative disables caching).
	CacheBytes int64
	// SessionGrace is how long a dropped client's room sessions stay
	// resumable before they expire into a real leave (default 30s;
	// negative disables resumption — disconnect evicts immediately).
	SessionGrace time.Duration
	// TraceThreshold selects which requests enter the slow-trace ring:
	// total latency >= threshold, or any error (default: SlowThreshold;
	// negative records every request — tests and live debugging).
	TraceThreshold time.Duration
	// TraceRing is how many slow/errored traces are retained (default
	// obs.DefaultTraceRing).
	TraceRing int
	// MaxInflight caps concurrently executing requests across the server
	// (default 1024; negative disables admission control entirely —
	// every request is admitted immediately, the pre-PR-5 behavior).
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an execution slot
	// once MaxInflight are running (default 128; 0 keeps the default,
	// negative is invalid). Arrivals beyond it are shed with
	// proto.ErrOverloaded.
	QueueDepth int
	// QueueTimeout sheds a queued request that cannot get a slot in time
	// (default 1s; negative waits as long as the request context allows).
	QueueTimeout time.Duration
	// PerPeerRate limits each connection to a sustained request rate in
	// requests/second (default 0: unlimited; negative is invalid).
	// PerPeerBurst is the burst allowance on top (default: the rate
	// rounded up, minimum 1).
	PerPeerRate  float64
	PerPeerBurst int
	// ShedPolicy selects queue-full behavior: wire.ShedByPriority (the
	// default) sheds bulk media fetches first and control RPCs last;
	// wire.ShedFIFO sheds strictly by arrival order.
	ShedPolicy wire.ShedPolicy
	// MemberPushBudget caps the estimated bytes of undrained events
	// queued per room member (default 1 MiB; negative disables). Slow
	// consumers over budget lose their oldest queued events and get a
	// Resync hint instead of buffering without bound.
	MemberPushBudget int64
	// QoSInterval is the adaptive-QoS control period: every tick the
	// server re-estimates each member connection's throughput from its
	// socket writes and adjusts that member's bandwidth tuning level,
	// degrading resolution before components (default 500ms; negative
	// disables the adaptive loop — and push-prefetch with it).
	QoSInterval time.Duration
	// QoSBands sets the throughput thresholds (bytes/second) separating
	// the low/medium/high tuning levels and the hysteresis fraction that
	// prevents flapping at a band edge (zero value selects
	// qos.DefaultBands()).
	QoSBands qos.Bands
	// PrefetchBudget caps the speculative bytes push-prefetched into one
	// member's client buffer over its session (default 256 KiB; negative
	// disables push-prefetch while keeping adaptive tuning).
	PrefetchBudget int64
	// NodeID names this server process in a room-sharded cluster (""
	// — the default — runs standalone). The cluster tier sets it; the
	// id appears in stats gauges and redirect errors.
	NodeID string
	// Intercept, when non-nil, is inserted into the dispatch chain
	// between tracing and admission — the seam where the cluster
	// routing tier decides served-here / redirect / forward before the
	// request consumes an admission slot.
	Intercept wire.Interceptor
	// OnPeerClose, when non-nil, observes every disconnected peer after
	// the server's own session eviction ran (the cluster tier tears
	// down the peer's forwarding links here).
	OnPeerClose func(*wire.Peer)
	// RoomSeed, when non-nil, is consulted once per room construction:
	// a node taking ownership after a failover restores the replicated
	// event log (Seq high-water mark, trim watermark, buffered events)
	// before the first member joins, so Resume replays exactly what the
	// old owner would have.
	RoomSeed func(roomName string) (RoomSnapshot, bool)
	// RoomTap, when non-nil, observes every room event-log advance —
	// the replication source. Called under the room lock: it must be
	// cheap, must not block, and must not call back into the server.
	RoomTap func(roomName, docID string, ev *room.Event, seq, trimmed uint64)
}

// RoomSnapshot is one room's replicable event-log state: what a
// standby accumulates from ReplicateReq streams and what SnapshotRooms
// exports on drain.
type RoomSnapshot struct {
	Room    string
	DocID   string
	Seq     uint64
	Trimmed uint64
	Events  []room.Event
}

// Server is the interaction server.
type Server struct {
	db      *mediadb.MediaDB
	rpc     *wire.Server
	reg     *registry
	stats   *wire.Stats
	tracer  *obs.Recorder
	objects *bytecache.Cache[blob.Digest] // nil when caching is off
	grace   time.Duration
	// limiter is the admission-control concurrency limiter (nil when
	// MaxInflight is negative); pushBudget is the per-member event-queue
	// byte cap handed to every room.
	limiter    *wire.Limiter
	pushBudget int64
	// forwarders counts the event-forwarding goroutines (one per room
	// membership) so Shutdown can flush queued pushes before closing
	// connections.
	forwarders sync.WaitGroup
	// qos is the adaptive bandwidth-estimation loop (nil when disabled):
	// per-member throughput drives the CP-net tuning level and spends
	// idle push budget on prefetch pushes.
	qos *qosController
	// Cluster-tier hooks (see the Options fields of the same names).
	nodeID      string
	onPeerClose func(*wire.Peer)
	roomSeed    func(string) (RoomSnapshot, bool)
	roomTap     func(string, string, *room.Event, uint64, uint64)
}

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

// New builds a server over an opened multimedia database with default
// pipeline options.
func New(db *mediadb.MediaDB) *Server {
	s, err := NewWith(db, Options{})
	if err != nil {
		// The zero Options always validate; reaching here is a bug in
		// the defaulting/validation code itself.
		panic(fmt.Sprintf("server: default options rejected: %v", err))
	}
	return s
}

// normalize applies the documented defaults in place.
func (o *Options) normalize() {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0 // wire.Timeout treats 0 as unbounded
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.CacheBytes < 0 {
		o.CacheBytes = 0 // NewWith builds no cache for 0
	}
	if o.SessionGrace == 0 {
		o.SessionGrace = 30 * time.Second
	}
	if o.SessionGrace < 0 {
		o.SessionGrace = 0 // room.SetGrace treats 0 as disabled
	}
	if o.TraceThreshold == 0 {
		o.TraceThreshold = o.SlowThreshold
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 1024
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 128
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = time.Second
	}
	if o.QueueTimeout < 0 {
		o.QueueTimeout = 0 // wire.Limiter treats 0 as wait-for-context
	}
	if o.MemberPushBudget == 0 {
		o.MemberPushBudget = 1 << 20
	}
	if o.MemberPushBudget < 0 {
		o.MemberPushBudget = 0 // room.SetPushBudget treats 0 as disabled
	}
	if o.QoSInterval == 0 {
		o.QoSInterval = 500 * time.Millisecond
	}
	if o.QoSInterval < 0 {
		o.QoSInterval = 0 // adaptive loop disabled
	}
	if o.QoSBands == (qos.Bands{}) {
		o.QoSBands = qos.DefaultBands()
	}
	if o.PrefetchBudget == 0 {
		o.PrefetchBudget = 256 << 10
	}
	if o.PrefetchBudget < 0 {
		o.PrefetchBudget = 0 // push-prefetch disabled
	}
}

// validate rejects nonsensical option values after normalize ran.
// Fields with a documented negative-disables contract (RequestTimeout,
// CacheBytes, SessionGrace, MaxInflight, QueueTimeout, MemberPushBudget)
// were already folded by normalize and are not re-checked here.
func (o *Options) validate() error {
	if o.RegistryShards < 0 {
		return fmt.Errorf("server: RegistryShards must be >= 0 (0 selects the default), got %d", o.RegistryShards)
	}
	if o.TraceRing < 0 {
		return fmt.Errorf("server: TraceRing must be >= 0 (0 selects the default), got %d", o.TraceRing)
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("server: QueueDepth must be >= 0 (0 selects the default), got %d", o.QueueDepth)
	}
	if o.PerPeerRate < 0 {
		return fmt.Errorf("server: PerPeerRate must be >= 0 (0 disables), got %g", o.PerPeerRate)
	}
	if o.PerPeerBurst < 0 {
		return fmt.Errorf("server: PerPeerBurst must be >= 0 (0 derives from the rate), got %d", o.PerPeerBurst)
	}
	if o.ShedPolicy != wire.ShedByPriority && o.ShedPolicy != wire.ShedFIFO {
		return fmt.Errorf("server: unknown ShedPolicy %d", o.ShedPolicy)
	}
	for m := range o.MethodTimeouts {
		if _, ok := methodClasses[m]; !ok {
			return fmt.Errorf("server: MethodTimeouts names unknown method %q", m)
		}
	}
	if o.QoSInterval > 0 {
		if err := o.QoSBands.Valid(); err != nil {
			return fmt.Errorf("server: QoSBands: %w", err)
		}
	}
	return nil
}

// NewWith builds a server with explicit pipeline options, rejecting
// nonsensical values with an error rather than silently misbehaving.
func NewWith(db *mediadb.MediaDB, o Options) (*Server, error) {
	o.normalize()
	if err := o.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		db:          db,
		rpc:         wire.NewServer(),
		reg:         newRegistry(o.RegistryShards),
		stats:       wire.NewStats(),
		tracer:      obs.NewRecorder(o.TraceRing, o.TraceThreshold),
		grace:       o.SessionGrace,
		pushBudget:  o.MemberPushBudget,
		nodeID:      o.NodeID,
		onPeerClose: o.OnPeerClose,
		roomSeed:    o.RoomSeed,
		roomTap:     o.RoomTap,
	}
	if o.CacheBytes > 0 {
		s.objects = bytecache.New[blob.Digest](o.CacheBytes)
		s.stats.Bind(CounterObjCacheHits, &s.objects.Hits)
		s.stats.Bind(CounterObjCacheMisses, &s.objects.Misses)
		s.stats.Bind(CounterObjCacheEvictions, &s.objects.Evictions)
	}
	s.rpc.SetStats(s.stats) // peer writers count flushes/bytes here
	if o.MaxInflight > 0 {
		s.limiter = wire.NewLimiter(o.MaxInflight, o.QueueDepth, o.ShedPolicy)
	}
	// Stats sits outermost so even recovered panics count as errors;
	// recovery wraps the timeout so a panic in a deadline-bound handler
	// still converts to a clean response. Tracing sits inside recovery:
	// its trace context must be live when the typed adapter and the room
	// record their decode/handle/push spans. Admission sits inside
	// tracing (shed requests and queue waits show up as traces/spans)
	// but outside the timeout, so time spent waiting for a slot never
	// consumes the handler's own deadline.
	ics := []wire.Interceptor{
		wire.WithStats(s.stats),
		wire.Recovery(),
		wire.Tracing(s.tracer),
	}
	if o.Intercept != nil {
		// The cluster routing tier sits inside tracing (redirects and
		// forwards appear as traces) but outside admission: a request
		// this node merely redirects or relays must not consume one of
		// its execution slots.
		ics = append(ics, o.Intercept)
	}
	ics = append(ics,
		wire.Admission(wire.AdmissionConfig{
			Limiter:      s.limiter,
			QueueTimeout: o.QueueTimeout,
			Classes:      methodClasses,
			PerPeerRate:  o.PerPeerRate,
			PerPeerBurst: o.PerPeerBurst,
			Stats:        s.stats,
		}),
		wire.Timeout(o.RequestTimeout, o.MethodTimeouts),
		wire.SlowLog(o.SlowThreshold, o.Logf),
	)
	s.rpc.Use(ics...)
	s.register()
	s.rpc.OnPeerClose(s.evictPeer)
	if o.QoSInterval > 0 {
		s.qos = newQoSController(s, o.QoSInterval, o.QoSBands, o.PrefetchBudget)
		go s.qos.run()
	}
	return s, nil
}

// methodClasses assigns every RPC an admission priority: control RPCs
// (join/resume/leave and the metrics surface) keep sessions alive and
// shed last; bulk media fetches are individually expensive, retryable,
// and shed first; everything else — the conference hot path — sits in
// between. Doubling as the known-method set for Options validation.
var methodClasses = map[string]wire.Priority{
	proto.MJoinRoom:  wire.PriorityControl,
	proto.MLeaveRoom: wire.PriorityControl,
	proto.MStats:     wire.PriorityControl,
	proto.MTraces:    wire.PriorityControl,
	proto.MHistory:   wire.PriorityControl,

	proto.MChoice:           wire.PriorityInteractive,
	proto.MOperation:        wire.PriorityInteractive,
	proto.MAnnotate:         wire.PriorityInteractive,
	proto.MDeleteAnnotation: wire.PriorityInteractive,
	proto.MFreeze:           wire.PriorityInteractive,
	proto.MRelease:          wire.PriorityInteractive,
	proto.MShareSearch:      wire.PriorityInteractive,
	proto.MChat:             wire.PriorityInteractive,
	proto.MBroadcastStart:   wire.PriorityInteractive,
	proto.MBroadcastStop:    wire.PriorityInteractive,

	proto.MListDocuments: wire.PriorityBulk,
	proto.MGetDocument:   wire.PriorityBulk,
	proto.MGetImage:      wire.PriorityBulk,
	proto.MGetAudio:      wire.PriorityBulk,
	proto.MGetCmp:        wire.PriorityBulk,
	proto.MPutImageTexts: wire.PriorityBulk,
	proto.MSaveMinutes:   wire.PriorityBulk,

	// Node-link plane: liveness and replication keep the cluster
	// coherent and must survive overload like session control does.
	proto.MNodeHello:        wire.PriorityControl,
	proto.MNodePing:         wire.PriorityControl,
	proto.MNodeIngress:      wire.PriorityControl,
	proto.MNodeReplicate:    wire.PriorityControl,
	proto.MNodeSyncManifest: wire.PriorityControl,
	proto.MNodeFetchChunks:  wire.PriorityControl,
}

// Stats exposes the pipeline's per-method request counters plus the
// push-path/cache named counters (see the Counter* constants in
// cache.go and package wire's CounterWriter*).
func (s *Server) Stats() *wire.Stats { return s.stats }

// NodeID reports this server's cluster node id ("" standalone).
func (s *Server) NodeID() string { return s.nodeID }

// Register installs an additional RPC handler — the seam the cluster
// tier uses to mount its node-link methods (hello/ping/ingress/
// replicate) on the same dispatch pipeline as client traffic. Call
// before Serve.
func (s *Server) Register(method string, h wire.Handler) { s.rpc.Register(method, h) }

// SnapshotRooms exports every live room's replicable event-log state —
// the drain path's final flush: before shutting down, a draining node
// pushes these snapshots to each room's standby so takeover loses
// nothing.
func (s *Server) SnapshotRooms() []RoomSnapshot {
	var out []RoomSnapshot
	s.reg.forEach(func(name string, rs *roomState) {
		out = append(out, RoomSnapshot{
			Room:    name,
			DocID:   rs.docID,
			Seq:     rs.room.Seq(),
			Trimmed: rs.room.Trimmed(),
			Events:  rs.room.History(0),
		})
	})
	return out
}

// Rooms lists the names of every live room — the cluster tier's cheap
// reconciliation view (no event logs are copied).
func (s *Server) Rooms() []string {
	var out []string
	s.reg.forEach(func(name string, rs *roomState) { out = append(out, name) })
	return out
}

// SnapshotRoom exports one live room's replicable event-log state.
func (s *Server) SnapshotRoom(name string) (RoomSnapshot, bool) {
	rs, ok := s.reg.get(name)
	if !ok {
		return RoomSnapshot{}, false
	}
	return RoomSnapshot{
		Room:    name,
		DocID:   rs.docID,
		Seq:     rs.room.Seq(),
		Trimmed: rs.room.Trimmed(),
		Events:  rs.room.History(0),
	}, true
}

// DropRoom closes the named room and removes it from the registry —
// the cluster tier's ownership-loss eviction: when placement moves a
// room to another node, the old owner drops its live copy so a stale
// room can never shadow the new owner's (the next local build starts
// from the replicated log instead). Members' event channels close;
// callers are expected to also disconnect the affected peers so their
// clients reconnect and land on the new owner.
func (s *Server) DropRoom(name string) bool {
	rs, ok := s.reg.get(name)
	if !ok {
		return false
	}
	s.reg.remove(name)
	rs.room.Close()
	return true
}

// Tracer exposes the slow/errored request trace ring (the sys.traces
// RPC and the -debug-addr trace endpoint read it).
func (s *Server) Tracer() *obs.Recorder { return s.tracer }

// Serve accepts connections on l until it closes.
func (s *Server) Serve(l net.Listener) error { return s.rpc.Serve(l) }

// ServeConn serves a single established connection (in-process setups).
func (s *Server) ServeConn(conn net.Conn) { s.rpc.ServeConn(conn) }

// Shutdown drains the server gracefully: stop accepting connections and
// reject new requests, announce the shutdown to every room (members
// receive room.EvShutdown while their connections are still up), wait
// for in-flight handlers until ctx expires, then close rooms and tear
// down the remaining connections.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.qos != nil {
		s.qos.stopLoop()
	}
	s.rpc.Drain()
	s.reg.forEach(func(name string, rs *roomState) { rs.room.AnnounceShutdown() })
	err := s.rpc.AwaitIdle(ctx)
	s.reg.closeAll()
	// Closing the rooms ended every member event stream; wait (bounded
	// by ctx) for the forwarding goroutines to flush their queued
	// pushes — the shutdown announcement among them — while the
	// connections are still up.
	flushed := make(chan struct{})
	go func() {
		s.forwarders.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// Forwarders only enqueue pushes; force the batched peer writers to
	// hand everything to the OS before the connections close.
	_ = s.rpc.FlushPeers(ctx)
	if cerr := s.rpc.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close shuts down with a default 5-second drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// register installs all RPC handlers through the typed adapter.
func (s *Server) register() {
	s.rpc.Register(proto.MListDocuments, wire.Typed(s.handleListDocuments))
	s.rpc.Register(proto.MGetDocument, wire.Typed(s.handleGetDocument))
	s.rpc.Register(proto.MGetImage, wire.Typed(s.handleGetImage))
	s.rpc.Register(proto.MGetAudio, wire.Typed(s.handleGetAudio))
	s.rpc.Register(proto.MGetCmp, wire.Typed(s.handleGetCmp))
	s.rpc.Register(proto.MPutImageTexts, wire.Typed(s.handlePutImageTexts))
	s.rpc.Register(proto.MJoinRoom, wire.Typed(s.handleJoinRoom))
	s.rpc.Register(proto.MLeaveRoom, wire.Typed(s.handleLeaveRoom))
	s.rpc.Register(proto.MChoice, wire.Typed(s.handleChoice))
	s.rpc.Register(proto.MOperation, wire.Typed(s.handleOperation))
	s.rpc.Register(proto.MAnnotate, wire.Typed(s.handleAnnotate))
	s.rpc.Register(proto.MDeleteAnnotation, wire.Typed(s.handleDeleteAnnotation))
	s.rpc.Register(proto.MFreeze, wire.Typed(s.handleFreeze))
	s.rpc.Register(proto.MRelease, wire.Typed(s.handleRelease))
	s.rpc.Register(proto.MShareSearch, wire.Typed(s.handleShareSearch))
	s.rpc.Register(proto.MChat, wire.Typed(s.handleChat))
	s.rpc.Register(proto.MHistory, wire.Typed(s.handleHistory))
	s.rpc.Register(proto.MBroadcastStart, wire.Typed(s.handleBroadcastStart))
	s.rpc.Register(proto.MBroadcastStop, wire.Typed(s.handleBroadcastStop))
	s.rpc.Register(proto.MSaveMinutes, wire.Typed(s.handleSaveMinutes))
	s.rpc.Register(proto.MStats, wire.Typed(s.handleStats))
	s.rpc.Register(proto.MTraces, wire.Typed(s.handleTraces))
}

// --- database methods ---

func (s *Server) handleListDocuments(ctx context.Context, p *wire.Peer, req *proto.ListDocumentsReq) (*proto.ListDocumentsResp, error) {
	ids, titles, err := s.db.ListDocuments()
	if err != nil {
		return nil, err
	}
	return &proto.ListDocumentsResp{IDs: ids, Titles: titles}, nil
}

func (s *Server) handleGetDocument(ctx context.Context, p *wire.Peer, req *proto.GetDocumentReq) (*proto.GetDocumentResp, error) {
	doc, err := s.db.GetDocument(req.DocID)
	if err != nil {
		return nil, err
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &proto.GetDocumentResp{DocData: data}, nil
}

func (s *Server) handleGetImage(ctx context.Context, p *wire.Peer, req *proto.GetImageReq) (*proto.GetImageResp, error) {
	return s.getImage(req.ID, req.IfDigestAbsent)
}

// digestMatches reports whether a conditional request's known digest
// equals the stored object's — the payload can then be elided.
func digestMatches(cond, digest []byte) bool {
	return len(cond) > 0 && bytes.Equal(cond, digest)
}

// payload resolves an immutable blob through the digest-keyed payload
// cache (straight from the store when caching is off). Under content
// addressing a cached payload stays valid for as long as it is
// resident, so nothing ever invalidates one; whatever can change about
// an object lives in its row, which every handler reads afresh.
func (s *Server) payload(h blob.Handle) ([]byte, error) {
	if s.objects == nil {
		return s.db.DB().GetBlob(h)
	}
	return s.objects.Fill(h.Digest, func() ([]byte, error) { return s.db.DB().GetBlob(h) })
}

// getImage answers a GetImage for cond (a conditional request's digest,
// nil for none): row first, and the raster only if cond does not
// already name it. The demand path and the QoS loop's push-prefetch
// share it and the cache under it, so a pre-push never doubles the
// store read the first demand would have done.
func (s *Server) getImage(id uint64, cond []byte) (*proto.GetImageResp, error) {
	img, h, err := s.db.ImageRow(id)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetImageResp{Quality: img.Quality, Texts: img.Texts, CM: img.CM, Digest: h.Digest[:]}
	if digestMatches(cond, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(h); err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) handleGetAudio(ctx context.Context, p *wire.Peer, req *proto.GetAudioReq) (*proto.GetAudioResp, error) {
	a, h, err := s.db.AudioRow(req.ID)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetAudioResp{Filename: a.Filename, Sectors: a.Sectors, Digest: h.Digest[:]}
	if digestMatches(req.IfDigestAbsent, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(h); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleGetCmp serves a compressed stream, truncating the body to the
// requested layer count so low-bandwidth clients transfer less. Every
// prefix is a slice of the one cached full stream: viewers at different
// resolutions share a single store read and a single resident copy.
func (s *Server) handleGetCmp(ctx context.Context, p *wire.Peer, req *proto.GetCmpReq) (*proto.GetCmpResp, error) {
	c, hh, dh, err := s.db.CmpRow(req.ID)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetCmpResp{Filename: c.Filename, Digest: dh.Digest[:]}
	// The header stays in the reply even when the body is elided — it is
	// tiny and the layer map may be what the client is after.
	if resp.Header, err = s.payload(hh); err != nil {
		return nil, err
	}
	// The digest addresses the full stream, so only an untruncated
	// response (MaxLayers == 0) can match a conditional request.
	if req.MaxLayers == 0 && digestMatches(req.IfDigestAbsent, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(dh); err != nil {
		return nil, err
	}
	if req.MaxLayers > 0 {
		n, err := compress.PrefixLen(resp.Header, req.MaxLayers)
		if err != nil {
			return nil, fmt.Errorf("server: stream %d: %w", req.ID, err)
		}
		if n > len(resp.Data) {
			return nil, fmt.Errorf("server: stream %d is corrupt: %d-layer prefix (%d bytes) exceeds body (%d bytes)",
				req.ID, req.MaxLayers, n, len(resp.Data))
		}
		resp.Data = resp.Data[:n]
	}
	return resp, nil
}

func (s *Server) handlePutImageTexts(ctx context.Context, p *wire.Peer, req *proto.PutImageTextsReq) (*wire.None, error) {
	return nil, s.db.UpdateImageTexts(req.ID, req.Texts)
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
	// replicated log before any member joins; the tap streams every
	// subsequent advance back out to the room's standby.
	if s.roomSeed != nil {
		if snap, ok := s.roomSeed(name); ok {
			if err := r.Restore(snap.Events, snap.Seq, snap.Trimmed); err != nil {
				return nil, err
			}
		}
	}
	if s.roomTap != nil {
		r.SetReplicator(func(ev *room.Event, seq, trimmed uint64) {
			s.roomTap(name, docID, ev, seq, trimmed)
		})
	}
	// Safe to enable: the forwarder refunds every delivered event via
	// member.Consumed.
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

func (ps *peerSessions) add(mb *membership) (dup bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.rooms[mb.room]; dup {
		return true
	}
	ps.rooms[mb.room] = mb
	return false
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

func (ps *peerSessions) snapshot() []*membership {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]*membership, 0, len(ps.rooms))
	for _, mb := range ps.rooms {
		out = append(out, mb)
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
	var (
		member   *room.Member
		history  []room.Event
		view     document.View
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
			return nil, rerr
		}
	}
	if member == nil {
		member, history, view, err = rs.room.Join(ctx, req.User)
		if err != nil {
			return nil, err
		}
	}
	sessions := sessionsOf(p)
	mb := &membership{room: req.Room, user: req.User, member: member}
	if sessions.add(mb) {
		_ = rs.room.Leave(req.User)
		return nil, fmt.Errorf("server: this connection already joined room %q", req.Room)
	}
	s.startForwarder(p, sessions, rs, req.Room, req.User, member)
	resp := &proto.JoinRoomResp{
		History: history,
		Outcome: view.Outcome, Visible: view.Visible,
		Resumed: resumed, Complete: complete,
		LastSeq: rs.room.Seq(),
	}
	// A complete resume needs no document: the client's copy is still
	// current and the missed events carry every change. Fresh joins and
	// gappy resumes get the full snapshot.
	if !resumed || !complete {
		docData, hit, err := rs.room.DocSnapshot()
		if err != nil {
			// Unwind the join: without this the member and its forwarding
			// goroutine would leak on the marshal error path.
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

// startForwarder pumps the member's event stream to the client as pushes.
// Room broadcast events carry a shared memoized encoding, so an
// N-member fan-out encodes each event once and every other forwarder
// pushes the same bytes (per-member presentation/resync events still
// encode individually). The shared payload rides the writev batch by
// reference: zero copies between the encode and the socket.
func (s *Server) startForwarder(p *wire.Peer, sessions *peerSessions, rs *roomState, roomName, user string, member *room.Member) {
	s.forwarders.Add(1)
	if s.qos != nil {
		s.qos.register(p, rs, roomName, user, member)
	}
	go func() {
		defer s.forwarders.Done()
		if s.qos != nil {
			defer s.qos.unregister(member)
		}
		for ev := range member.Events() {
			// Refund the event's push-budget charge: once it is off the
			// queue the room no longer holds it for this member.
			member.Consumed(ev)
			payload, encoded := ev.EncodeShared()
			s.stats.Add(CounterFanoutEvents, 1)
			if encoded {
				s.stats.Add(CounterFanoutEncodes, 1)
			} else {
				s.stats.Add(CounterEncodesSaved, 1)
			}
			if err := p.PushRaw(proto.MEvent, wire.EncBinary, payload); err != nil {
				// The client is unreachable: detach the session so a
				// reconnecting client can resume it within the grace
				// period (after which it expires into a real leave).
				// Detach closes the event channel, ending this range.
				sessions.drop(roomName)
				if rs.room.Detach(member) {
					s.stats.Add(CounterSessionDetached, 1)
				}
				// Detach closed the channel with events possibly still
				// queued; drain them so their push-budget charges are
				// refunded — otherwise the abandoned member reads as
				// phantom queue pressure to the QoS loop and the gauges.
				member.DrainRefund()
				return
			}
		}
	}()
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
