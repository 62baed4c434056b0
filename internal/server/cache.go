package server

import (
	"container/list"
	"fmt"
	"sync"

	"mmconf/internal/wire"
)

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
	// CounterObjCacheHits / Misses / Evictions count the store-backed
	// object response cache (GetCmp layers, images, audio). A hit is a
	// request served without a store fetch, including requests that
	// joined an in-flight singleflight fill.
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

// Cache keys for store-backed object responses.
func cmpKey(id uint64, layers int) string { return fmt.Sprintf("cmp:%d:%d", id, layers) }
func imgKey(id uint64) string             { return fmt.Sprintf("img:%d", id) }
func audKey(id uint64) string             { return fmt.Sprintf("aud:%d", id) }

// objectCache is a byte-bounded LRU over immutable store-backed RPC
// responses — the content cache of the delivery hot path: repeat
// fetches of the same compression layer prefix (every viewer of a room
// pulls the same CT layers) skip the store fetch, the layer-header
// parse and the prefix computation. Fills are singleflighted: N
// concurrent viewers requesting the same object do one store fetch and
// share the result. Cached values are shared by reference, so callers
// must treat them as immutable. A zero capacity disables the cache
// entirely (every get runs fill, nothing is counted).
type objectCache struct {
	stats *wire.Stats

	mu    sync.Mutex
	cap   int64
	size  int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *cacheEntry
	fills map[string]*cacheFill    // in-flight loads (singleflight)
}

type cacheEntry struct {
	key  string
	val  any
	size int64
}

// cacheFill is one in-flight load; done closes when val/err are set.
// stale is flipped (under the cache lock) by invalidate so a fill that
// raced a mutation is returned to its waiters but never cached.
type cacheFill struct {
	done  chan struct{}
	val   any
	err   error
	stale bool
}

func newObjectCache(capBytes int64, stats *wire.Stats) *objectCache {
	return &objectCache{
		stats: stats,
		cap:   capBytes,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		fills: make(map[string]*cacheFill),
	}
}

// get returns the value for key, running fill (which reports the value
// and its approximate byte size) on a miss. Concurrent misses on one
// key share a single fill; errors are never cached.
func (c *objectCache) get(key string, fill func() (any, int64, error)) (any, error) {
	if c.cap <= 0 {
		v, _, err := fill()
		return v, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.stats.Add(CounterObjCacheHits, 1)
		return v, nil
	}
	if f, ok := c.fills[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		// Joined a concurrent fetch: the store was hit once for all of
		// us, so this counts as a hit.
		c.stats.Add(CounterObjCacheHits, 1)
		return f.val, nil
	}
	f := &cacheFill{done: make(chan struct{})}
	c.fills[key] = f
	c.mu.Unlock()
	c.stats.Add(CounterObjCacheMisses, 1)
	var size int64
	f.val, size, f.err = fill()
	close(f.done)
	c.mu.Lock()
	delete(c.fills, key)
	if f.err == nil && !f.stale && size <= c.cap {
		if _, dup := c.items[key]; !dup {
			c.size += size
			c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: f.val, size: size})
			for c.size > c.cap {
				el := c.ll.Back()
				ent := el.Value.(*cacheEntry)
				c.ll.Remove(el)
				delete(c.items, ent.key)
				c.size -= ent.size
				c.stats.Add(CounterObjCacheEvictions, 1)
			}
		}
	}
	c.mu.Unlock()
	return f.val, f.err
}

// gauges reports the cache's live occupancy: resident bytes and entry
// count (both 0 when the cache is disabled).
func (c *objectCache) gauges() (bytes int64, entries int) {
	if c.cap <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, c.ll.Len()
}

// invalidate drops a key after its backing object mutated. An in-flight
// fill for the key is marked stale so its (possibly pre-mutation)
// result is served to its waiters but not cached.
func (c *objectCache) invalidate(key string) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.size -= ent.size
	}
	if f, ok := c.fills[key]; ok {
		f.stale = true
	}
	c.mu.Unlock()
}
