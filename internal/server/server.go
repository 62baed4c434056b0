// Package server implements the interaction server of the paper (§3,
// §5.3): it serves multimedia objects and documents out of the database
// server, manages the shared rooms, keeps track of user actions, hands
// them to the presentation module, and propagates every change to all
// clients in the room over the wire layer's push channel.
//
// Every method registers through wire.Typed (which owns the body codecs)
// and is dispatched by one request step (dispatch.go): clock and trace,
// cluster routing, admission, the handler under its deadline with panic
// recovery, then one end time for stats, the trace ring and the slow
// log. The per-request context reaches the room entry points so work
// for a dead or impatient client is abandoned.
// A member's room request reaches its room through the connection's
// membership table, so it takes no room-table lock; the table (one map)
// serves joins, history, replication snapshots and eviction.
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
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// Options tunes the request pipeline. The zero value selects the
// defaults noted on each field; DESIGN.md §14 says which program sets
// what. What no program tunes is a constant: the request deadline
// (requestTimeout), the slow bar (slowRequest), the member queue budget
// (memberPushBudget) and the QoS bands (qos.DefaultBands).
type Options struct {
	// Logf receives slow-request reports (default log.Printf).
	Logf func(format string, args ...any)
	// CacheBytes bounds the cache of store-backed media payloads, keyed
	// by content digest (default 64 MiB; negative disables caching).
	CacheBytes int64
	// SessionGrace is how long a dropped client's room sessions stay
	// resumable before they expire into a real leave (default 30s;
	// negative disables resumption — disconnect evicts immediately).
	SessionGrace time.Duration
	// MaxInflight caps concurrently executing requests across the server
	// (default 1024; negative disables admission control entirely —
	// every request is admitted immediately).
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an execution slot
	// once MaxInflight are running (default 128; negative is invalid).
	// Arrivals beyond it are shed with wire.ErrOverloaded.
	QueueDepth int
	// QueueTimeout sheds a queued request that cannot get a slot in time
	// (default 1s; negative is invalid).
	QueueTimeout time.Duration
	// PerPeerRate limits each connection to a sustained request rate in
	// requests/second (default 0: unlimited; negative is invalid).
	// PerPeerBurst is the burst allowance on top (default: the rate
	// rounded up, minimum 1).
	PerPeerRate  float64
	PerPeerBurst int
	// QoSInterval is the adaptive-QoS control period: every tick the
	// server re-estimates each member connection's throughput from its
	// socket writes and adjusts that member's bandwidth tuning level,
	// degrading resolution before components (default 500ms; negative
	// is invalid).
	QoSInterval time.Duration
	// PrefetchBudget caps the speculative bytes push-prefetched into one
	// member's client buffer over its session (default 256 KiB; negative
	// disables push-prefetch while keeping adaptive tuning).
	PrefetchBudget int64
	// Cluster, when non-nil, is the cluster tier's seam (cluster.New
	// fills it); nil serves standalone.
	Cluster Cluster
}

// The settings no program tunes.
const (
	// requestTimeout bounds every handler, counted from its admission.
	requestTimeout = 30 * time.Second
	// slowRequest is the one bar for a slow request: a request that takes
	// at least this long is logged through Options.Logf and kept in the
	// trace ring, which also keeps every errored request.
	slowRequest = 250 * time.Millisecond
	// memberPushBudget caps the estimated bytes of undrained events
	// queued per room member. Slow consumers over budget lose their
	// oldest queued events and get a Resync hint instead of buffering
	// without bound.
	memberPushBudget = 1 << 20
)

// Cluster is what a cluster tier tells the server, and is told by it.
type Cluster interface {
	// Route sees every request after the trace starts and before
	// admission. It either answers the request (routed true: a redirect,
	// a relay to the owner, a refusal), which then takes no admission
	// slot, or leaves it to be served here.
	Route(ctx context.Context, p *wire.Peer, method string, payload []byte) (result any, routed bool, err error)
	// PeerClosed observes every disconnected peer (the cluster tier
	// tears down the peer's forwarding links here).
	PeerClosed(p *wire.Peer)
	// RoomSeed is consulted once per room construction: a node taking
	// ownership after a failover restores the replicated event log (Seq
	// high-water mark, trim watermark, buffered events) before the first
	// member joins, so Resume replays exactly what the old owner would
	// have.
	RoomSeed(roomName string) (room.Log, bool)
	// RoomTap is told of every room event-log advance; the replicating
	// node then reads the log with SnapshotRoomInto. Called under the
	// room lock: it must be cheap, must not block, and must not call back
	// into the server.
	RoomTap(roomName string)
}

// Server is the interaction server.
type Server struct {
	db      *mediadb.MediaDB
	rpc     *wire.Server
	stats   *wire.Stats
	ctr     counters // stats' counters, resolved once
	tracer  *obs.Recorder
	objects *bytecache.Cache[blob.Digest] // nil when caching is off
	grace   time.Duration
	// rooms is the live room table, by name.
	roomsMu sync.RWMutex
	rooms   map[string]*roomState
	// The request step's settings: limiter is nil when MaxInflight is
	// negative; timeout and slow are requestTimeout and slowRequest, which
	// in-package tests may change before serving.
	limiter      *wire.Limiter
	queueTimeout time.Duration
	perPeerRate  float64
	perPeerBurst int
	timeout      time.Duration
	slow         time.Duration
	logf         func(format string, args ...any)
	// pushBudget is the per-member event-queue byte cap handed to every
	// room (memberPushBudget).
	pushBudget int64
	// sources counts the member event streams attached to connection
	// writers (one per room membership) so Shutdown can wait for the
	// writers to take what the rooms queued before it closes connections.
	sources sync.WaitGroup
	// qos is the adaptive bandwidth-estimation loop: per-member
	// throughput drives the CP-net tuning level and spends idle push
	// budget on prefetch pushes.
	qos *qosController
	// cluster is Options.Cluster: nil standalone.
	cluster Cluster
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
	if o.MaxInflight == 0 {
		o.MaxInflight = 1024
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 128
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = time.Second
	}
	if o.QoSInterval == 0 {
		o.QoSInterval = 500 * time.Millisecond
	}
	if o.PrefetchBudget == 0 {
		o.PrefetchBudget = 256 << 10
	}
	if o.PrefetchBudget < 0 {
		o.PrefetchBudget = 0 // push-prefetch disabled
	}
}

// Validate reports the first option value NewWith refuses, naming the
// field, without building anything: a command checks its flags with it
// before it opens or seeds a database. Zero selects a field's default,
// and the fields with a documented negative-disables contract
// (CacheBytes, SessionGrace, MaxInflight, PrefetchBudget) accept any
// value.
func (o Options) Validate() error {
	if o.QueueDepth < 0 {
		return fmt.Errorf("server: QueueDepth must be >= 0 (0 selects the default), got %d", o.QueueDepth)
	}
	if o.QueueTimeout < 0 {
		return fmt.Errorf("server: QueueTimeout must be >= 0 (0 selects the default), got %v", o.QueueTimeout)
	}
	if o.PerPeerRate < 0 {
		return fmt.Errorf("server: PerPeerRate must be >= 0 (0 disables), got %g", o.PerPeerRate)
	}
	if o.PerPeerBurst < 0 {
		return fmt.Errorf("server: PerPeerBurst must be >= 0 (0 derives from the rate), got %d", o.PerPeerBurst)
	}
	if o.QoSInterval < 0 {
		return fmt.Errorf("server: QoSInterval must be >= 0 (0 selects the default), got %v", o.QoSInterval)
	}
	return nil
}

// NewWith builds a server with explicit pipeline options, rejecting
// nonsensical values with an error rather than silently misbehaving.
func NewWith(db *mediadb.MediaDB, o Options) (*Server, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o.normalize()
	s := &Server{
		db:           db,
		rpc:          wire.NewServer(),
		rooms:        make(map[string]*roomState),
		stats:        wire.NewStats(),
		tracer:       obs.NewRecorder(obs.DefaultTraceRing, slowRequest),
		grace:        o.SessionGrace,
		queueTimeout: o.QueueTimeout,
		perPeerRate:  o.PerPeerRate,
		perPeerBurst: o.PerPeerBurst,
		timeout:      requestTimeout,
		slow:         slowRequest,
		logf:         o.Logf,
		pushBudget:   memberPushBudget,
		cluster:      o.Cluster,
	}
	s.ctr = newCounters(s.stats)
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
	s.register()
	// A closed connection's room sessions detach as its writer abandons
	// their streams (membership.Abandon); the cluster tier tears down its
	// forwarding links.
	if s.cluster != nil {
		s.rpc.OnPeerClose(s.cluster.PeerClosed)
	}
	s.qos = newQoSController(s, o.QoSInterval, o.PrefetchBudget)
	go s.qos.run()
	return s, nil
}

// Stats exposes the pipeline's per-method request counters plus the
// named counters (the Counter* constants here and in package wire;
// DESIGN.md §7 lists every one).
func (s *Server) Stats() *wire.Stats { return s.stats }

// Register installs an RPC handler behind the request step, with the
// admission class proto's method table gives its name (interactive for
// a name the table does not list) — the seam the cluster tier also uses
// to mount its node-link methods on the same path as client traffic.
// Call before Serve.
func (s *Server) Register(name string, h wire.Handler) {
	class := wire.PriorityInteractive
	if row, ok := proto.Lookup(name); ok {
		class = row.Class
	}
	m := &method{name: name, class: class, h: h, stats: s.stats.Recorder(name)}
	s.rpc.Register(name, func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		return s.dispatch(ctx, m, p, payload)
	})
}

// Methods lists the methods the server answers, sorted.
func (s *Server) Methods() []string { return s.rpc.Methods() }

// Rooms lists the names of every live room — the cluster tier's cheap
// reconciliation view (no event logs are copied).
func (s *Server) Rooms() []string {
	var out []string
	for _, rs := range s.liveRooms() {
		out = append(out, rs.room.Name)
	}
	return out
}

// SnapshotRoomInto reads one live room's event log past since into the
// frame that replicates it: since is the standby's cursor, 0 for the
// whole log (handoff, drain, a first or failed send). It sets f's room,
// document and marks, and appends the events to f.Events[:0], so a
// replication cursor that reuses its frame reads the log without
// allocating; f's other fields are left as they are. The events and both
// marks come from one Room.LogSince, so the standby's Merge takes the
// frame. It reports false when the room is not live here.
func (s *Server) SnapshotRoomInto(f *proto.ReplicateReq, name string, since uint64) bool {
	rs, ok := s.lookupRoom(name)
	if !ok {
		return false
	}
	f.Room, f.DocID = name, rs.docID
	f.Events, f.Seq, f.Trimmed = rs.room.LogSince(f.Events[:0], since)
	return true
}

// DropRoom closes the named room and removes it from the room table —
// the cluster tier's ownership-loss eviction: when placement moves a
// room to another node, the old owner drops its live copy so a stale
// room can never shadow the new owner's (the next local build starts
// from the replicated log instead). Each connection that is a member
// of the room at that moment is disconnected, so its client reconnects
// and lands on the new owner; a request still in flight on one finds the
// dropped room empty and is refused.
func (s *Server) DropRoom(name string) bool {
	s.roomsMu.Lock()
	rs, ok := s.rooms[name]
	delete(s.rooms, name)
	s.roomsMu.Unlock()
	if !ok {
		return false
	}
	rs.dropped.Store(true)
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
	s.qos.stopLoop()
	s.rpc.Drain()
	for _, rs := range s.liveRooms() {
		rs.room.AnnounceShutdown()
	}
	err := s.rpc.AwaitIdle(ctx)
	s.roomsMu.Lock()
	rooms := s.rooms
	s.rooms = make(map[string]*roomState)
	s.roomsMu.Unlock()
	for _, rs := range rooms {
		rs.room.Close()
	}
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
	s.Register(proto.MListDocuments, wire.Typed(s.handleListDocuments))
	s.Register(proto.MGetDocument, wire.Typed(s.handleGetDocument))
	s.Register(proto.MGetImage, wire.Typed(s.handleGetImage))
	s.Register(proto.MGetAudio, wire.Typed(s.handleGetAudio))
	s.Register(proto.MGetCmp, wire.Typed(s.handleGetCmp))
	s.Register(proto.MPutImageTexts, wire.Typed(s.handlePutImageTexts))
	s.Register(proto.MJoinRoom, wire.Typed(s.handleJoinRoom))
	s.Register(proto.MLeaveRoom, wire.Typed(s.handleLeaveRoom))
	s.Register(proto.MChoice, wire.Typed(s.handleChoice))
	s.Register(proto.MOperation, wire.Typed(s.handleOperation))
	s.Register(proto.MAnnotate, wire.Typed(s.handleAnnotate))
	s.Register(proto.MDeleteAnnotation, wire.Typed(s.handleDeleteAnnotation))
	s.Register(proto.MFreeze, wire.Typed(s.handleFreeze))
	s.Register(proto.MRelease, wire.Typed(s.handleRelease))
	s.Register(proto.MShareSearch, wire.Typed(s.handleShareSearch))
	s.Register(proto.MChat, wire.Typed(s.handleChat))
	s.Register(proto.MHistory, wire.Typed(s.handleHistory))
	s.Register(proto.MBroadcastStart, wire.Typed(s.handleBroadcastStart))
	s.Register(proto.MBroadcastStop, wire.Typed(s.handleBroadcastStop))
	s.Register(proto.MSaveMinutes, wire.Typed(s.handleSaveMinutes))
	s.Register(proto.MStats, wire.Typed(s.handleStats))
	s.Register(proto.MTraces, wire.Typed(s.handleTraces))
}
