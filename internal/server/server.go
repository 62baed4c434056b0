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
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"mmconf/internal/blob"
	"mmconf/internal/bytecache"
	"mmconf/internal/mediadb"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/qos"
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
	RoomSeed func(roomName string) (*proto.ReplicateReq, bool)
	// RoomTap, when non-nil, is told of every room event-log advance;
	// the replicating node then reads the log with SnapshotRoom. Called
	// under the room lock: it must be cheap, must not block, and must
	// not call back into the server.
	RoomTap func(roomName string)
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
	// sources counts the member event streams attached to connection
	// writers (one per room membership) so Shutdown can wait for the
	// writers to take what the rooms queued before it closes connections.
	sources sync.WaitGroup
	// qos is the adaptive bandwidth-estimation loop (nil when disabled):
	// per-member throughput drives the CP-net tuning level and spends
	// idle push budget on prefetch pushes.
	qos *qosController
	// Cluster-tier hooks (see the Options fields of the same names).
	nodeID      string
	onPeerClose func(*wire.Peer)
	roomSeed    func(string) (*proto.ReplicateReq, bool)
	roomTap     func(string)
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
		s.limiter = wire.NewLimiter(o.MaxInflight, o.QueueDepth)
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
	proto.MNodePing:        wire.PriorityControl,
	proto.MNodeIngress:     wire.PriorityControl,
	proto.MNodeReplicate:   wire.PriorityControl,
	proto.MNodeFetchChunks: wire.PriorityControl,
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

// Methods lists the methods the server answers, sorted.
func (s *Server) Methods() []string { return s.rpc.Methods() }

// Rooms lists the names of every live room — the cluster tier's cheap
// reconciliation view (no event logs are copied).
func (s *Server) Rooms() []string {
	var out []string
	s.reg.forEach(func(name string, rs *roomState) { out = append(out, name) })
	return out
}

// SnapshotRoom reads one live room's event log past since in the frame
// that replicates it: since is the standby's cursor, 0 for the whole log
// (handoff, drain, a first or failed send). The events and both marks
// come from one Room.LogSince, so the frame always restores.
func (s *Server) SnapshotRoom(name string, since uint64) (*proto.ReplicateReq, bool) {
	rs, ok := s.reg.get(name)
	if !ok {
		return nil, false
	}
	events, seq, trimmed := rs.room.LogSince(since)
	return &proto.ReplicateReq{Room: name, DocID: rs.docID, Seq: seq, Trimmed: trimmed, Events: events}, true
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
	// Closing the rooms ended every member event stream and kicked its
	// connection's writer; wait (bounded by ctx) for the writers to take
	// what is queued — the shutdown announcement among it — while the
	// connections are still up.
	flushed := make(chan struct{})
	go func() {
		s.sources.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// A source is done once its last event is in the writer's batch;
	// force the batched peer writers to hand everything to the OS before
	// the connections close.
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
