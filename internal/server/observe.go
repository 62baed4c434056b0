package server

import (
	"context"
	"runtime"
	"sort"
	"sync/atomic"

	"mmconf/internal/bytecache"
	"mmconf/internal/obs"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// Counter names for the server's content caches and push path, surfaced
// through Server.Stats() (wire.Stats named counters).
const (
	// CounterFanoutEvents counts room events taken off member queues by
	// connection writers for push delivery.
	CounterFanoutEvents = "push.events"
	// CounterFanoutEncodes counts actual encodes of pushed events; with
	// encode-once fan-out this is ~1 per broadcast event.
	CounterFanoutEncodes = "push.encodes"
	// CounterEncodesSaved counts fan-out deliveries served from a
	// shared encoding (fanned events minus encodes).
	CounterEncodesSaved = "push.encodes_saved"
	// CounterQueueDrops counts member-queue events discarded because a
	// client stopped draining (the member's next event carries a
	// Resync hint).
	CounterQueueDrops = "push.queue_drops"
	// CounterDocCacheHits / Misses count joins served from (or filling)
	// the per-room document snapshot cache.
	CounterDocCacheHits   = "cache.doc.hits"
	CounterDocCacheMisses = "cache.doc.misses"
	// CounterObjCacheHits / Misses / Evictions count the digest-keyed
	// payload cache under GetImage, GetAudio and GetCmp. A miss is one
	// payload read from the store; a hit is a payload served without
	// one, including by joining another request's in-flight read.
	CounterObjCacheHits      = "cache.obj.hits"
	CounterObjCacheMisses    = "cache.obj.misses"
	CounterObjCacheEvictions = "cache.obj.evictions"
	// CounterSessionDetached counts room sessions parked for possible
	// resume after their connection dropped (or a push failed);
	// CounterSessionResumed counts sessions revived within the grace
	// period, and CounterSessionExpired those that ran it out and
	// became real leaves.
	CounterSessionDetached = "session.detached"
	CounterSessionResumed  = "session.resumed"
	CounterSessionExpired  = "session.expired"
	// CounterReconnectResumes / Rejoins split reconnect joins (Resume
	// set on JoinRoomReq) by outcome: an exact resume versus a fresh
	// fallback join after the detached session was gone.
	CounterReconnectResumes = "reconnect.resumes"
	CounterReconnectRejoins = "reconnect.rejoins"
)

// counters are the server's own named counters, each resolved from its
// Stats once, in NewWith: whatever counts adds to the handle, and a
// fresh server reports every one of them at zero.
type counters struct {
	fanoutEvents, fanoutEncodes, encodesSaved, queueDrops *atomic.Uint64
	docCacheHits, docCacheMisses                          *atomic.Uint64
	sessionDetached, sessionResumed, sessionExpired       *atomic.Uint64
	reconnectResumes, reconnectRejoins                    *atomic.Uint64
	qosTuneChanges, qosPrefetchPushes, qosPrefetchBytes   *atomic.Uint64
	admission                                             wire.AdmissionCounters
}

func newCounters(st *wire.Stats) counters {
	return counters{
		fanoutEvents:      st.Handle(CounterFanoutEvents),
		fanoutEncodes:     st.Handle(CounterFanoutEncodes),
		encodesSaved:      st.Handle(CounterEncodesSaved),
		queueDrops:        st.Handle(CounterQueueDrops),
		docCacheHits:      st.Handle(CounterDocCacheHits),
		docCacheMisses:    st.Handle(CounterDocCacheMisses),
		sessionDetached:   st.Handle(CounterSessionDetached),
		sessionResumed:    st.Handle(CounterSessionResumed),
		sessionExpired:    st.Handle(CounterSessionExpired),
		reconnectResumes:  st.Handle(CounterReconnectResumes),
		reconnectRejoins:  st.Handle(CounterReconnectRejoins),
		qosTuneChanges:    st.Handle(CounterQoSTuneChanges),
		qosPrefetchPushes: st.Handle(CounterQoSPrefetchPushes),
		qosPrefetchBytes:  st.Handle(CounterQoSPrefetchBytes),
		admission:         wire.NewAdmissionCounters(st),
	}
}

// MetricsSnapshot assembles the server's full observability view: every
// method's latency summary (mean plus log-bucketed tail percentiles),
// the named monotonic counters (push.*, cache.*, session.*, wire.*),
// live gauges, and per-room status. It is the single source behind the
// sys.stats RPC and the -debug-addr /debug/metrics endpoint.
func (s *Server) MetricsSnapshot() *proto.StatsResp {
	resp := &proto.StatsResp{
		Methods:  make(map[string]proto.MethodSummary),
		Counters: s.stats.Counters(),
		Gauges:   make(map[string]int64),
	}
	for name, ms := range s.stats.Snapshot() {
		resp.Methods[name] = proto.MethodSummary{
			Requests: ms.Requests,
			Errors:   ms.Errors,
			Mean:     ms.Mean(),
			Max:      ms.MaxLatency,
			P50:      ms.P50,
			P90:      ms.P90,
			P99:      ms.P99,
		}
	}

	// The backlog is responses and prefetch pushes waiting for a writer;
	// queued room events wait in member queues and read as each room's
	// QueuedEvents / QueuedBytes / MaxQueueDepth below.
	peers, backlog := s.rpc.WriteBacklog()
	resp.Gauges["wire.peers"] = int64(peers)
	resp.Gauges["wire.write_backlog"] = int64(backlog)

	// The protocol version this server speaks, and the effectiveness
	// (gets vs misses = hit rate) of the codec scratch pool, of the
	// request-frame pool and of the reply-frame pool (the media replies
	// the process's own wire clients read: a relay's, a client's run in
	// the same process).
	resp.Gauges["wire.proto_version"] = wire.ProtoV3
	gets, misses := wire.PoolStats()
	resp.Counters["wire.pool_gets"] = gets
	resp.Counters["wire.pool_misses"] = misses
	gets, misses = wire.FramePoolStats()
	resp.Counters["wire.frame_pool_gets"] = gets
	resp.Counters["wire.frame_pool_misses"] = misses
	gets, misses = wire.ReplyPoolStats()
	resp.Counters["wire.reply_pool_gets"] = gets
	resp.Counters["wire.reply_pool_misses"] = misses

	// Content-addressed blob store: dedup and space-reclamation health.
	bs, missing := s.db.DB().BlobStats()
	resp.Counters["blob.puts"] = uint64(bs.Puts)
	resp.Counters["blob.gets"] = uint64(bs.Gets)
	resp.Counters["blob.releases"] = uint64(bs.Releases)
	resp.Counters["blob.dedup_hits"] = uint64(bs.DedupHits)
	resp.Counters["blob.dedup_bytes"] = uint64(bs.DedupBytes)
	resp.Counters["blob.chunk_dedup_hits"] = uint64(bs.ChunkDedupHits)
	resp.Counters["blob.hole_reuses"] = uint64(bs.HoleReuses)
	resp.Counters["blob.compactions"] = uint64(bs.Compactions)
	resp.Counters["blob.compacted_bytes"] = uint64(bs.CompactedBytes)
	resp.Gauges["blob.chunks"] = bs.Chunks
	resp.Gauges["blob.objects"] = bs.Manifests
	resp.Gauges["blob.live_bytes"] = bs.LiveBytes
	resp.Gauges["blob.free_bytes"] = bs.FreeBytes
	resp.Gauges["blob.total_bytes"] = bs.TotalBytes
	resp.Gauges["blob.segments"] = bs.Segments
	resp.Gauges["blob.missing_refs"] = int64(missing)
	var cache bytecache.Stats // zero when caching is off
	if s.objects != nil {
		cache = s.objects.Stats()
	}
	resp.Gauges["cache.obj.bytes"] = cache.Bytes
	resp.Gauges["cache.obj.entries"] = int64(cache.Entries)
	resp.Gauges["go.goroutines"] = int64(runtime.NumGoroutine())
	// Adaptive QoS loop: members under control and their level split.
	s.qos.addGauges(resp.Gauges)
	if s.limiter != nil {
		resp.Gauges["admission.inflight"] = int64(s.limiter.Inflight())
		resp.Gauges["admission.queued"] = int64(s.limiter.Queued())
	}

	var members, detached, queued, buffered, queuedBytes int64
	for _, rs := range s.liveRooms() {
		g := rs.room.Gauges()
		resp.Rooms = append(resp.Rooms, proto.RoomStatus{
			Name:           rs.room.Name,
			Members:        g.Members,
			Detached:       g.Detached,
			QueuedEvents:   g.QueuedEvents,
			QueuedBytes:    g.QueuedBytes,
			MaxQueueDepth:  g.MaxQueueDepth,
			BufferedEvents: g.BufferedEvents,
		})
		members += int64(g.Members)
		detached += int64(g.Detached)
		queued += int64(g.QueuedEvents)
		buffered += int64(g.BufferedEvents)
		queuedBytes += g.QueuedBytes
	}
	sort.Slice(resp.Rooms, func(i, j int) bool { return resp.Rooms[i].Name < resp.Rooms[j].Name })
	resp.Gauges["rooms.live"] = int64(len(resp.Rooms))
	resp.Gauges["rooms.members"] = members
	resp.Gauges["rooms.detached"] = detached
	resp.Gauges["rooms.queued_events"] = queued
	resp.Gauges["rooms.buffered_events"] = buffered
	resp.Gauges["rooms.queued_bytes"] = queuedBytes
	return resp
}

// Traces returns recent slow/errored request traces, newest first. A
// non-zero id filters to that trace; limit <= 0 returns all retained.
func (s *Server) Traces(id uint64, limit int) []obs.TraceRecord {
	if id != 0 {
		recs := s.tracer.Find(id)
		if limit > 0 && len(recs) > limit {
			recs = recs[:limit]
		}
		return recs
	}
	return s.tracer.Recent(limit)
}

func (s *Server) handleStats(ctx context.Context, p *wire.Peer, req *proto.StatsReq) (*proto.StatsResp, error) {
	return s.MetricsSnapshot(), nil
}

func (s *Server) handleTraces(ctx context.Context, p *wire.Peer, req *proto.TracesReq) (*proto.TracesResp, error) {
	recs := s.Traces(req.ID, req.Limit)
	resp := &proto.TracesResp{Traces: make([]proto.TraceInfo, 0, len(recs))}
	for _, r := range recs {
		ti := proto.TraceInfo{
			ID:     r.ID,
			Method: r.Method,
			Peer:   r.Peer,
			Start:  r.Start,
			Total:  r.Total,
			Err:    r.Err,
			Spans:  make([]proto.TraceSpan, 0, len(r.Spans)),
		}
		for _, sp := range r.Spans {
			ti.Spans = append(ti.Spans, proto.TraceSpan{Name: sp.Name, Start: sp.Start, Dur: sp.Dur})
		}
		resp.Traces = append(resp.Traces, ti)
	}
	return resp, nil
}
