package server

// Counter names for the server's content caches and push path, surfaced
// through Server.Stats() (wire.Stats named counters).
const (
	// CounterFanoutEvents counts room events handed to member
	// forwarders for push delivery.
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
