// Package bytecache is the tree's one byte-bounded LRU: §4.4 of the
// paper rests on holding payloads in a bounded buffer because transfer
// cost dominates, and the server's payload cache, the client's media
// buffer and the E8/E15 simulation's buffer are all instantiations of
// the Cache below. Payloads are shared by reference and must be treated as
// immutable by everyone who holds one.
package bytecache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a byte-bounded LRU of immutable payloads, safe for
// concurrent use. The bound counts payload bytes only.
type Cache[K comparable] struct {
	// Hits, Misses and Evictions count lookups (Get and Fill) and
	// displaced entries. They are atomics so an owner can publish them
	// live (the server binds them into its wire.Stats) without taking
	// the cache lock; everyone else reads them through Stats.
	Hits, Misses, Evictions atomic.Uint64

	mu    sync.Mutex
	cap   int64
	size  int64
	ll    *list.List          // of *entry[K]; front = most recently used
	items map[K]*list.Element // key -> its element in ll
	fills map[K]*fill         // in-flight Fill loads (singleflight)
}

type entry[K comparable] struct {
	key  K
	data []byte
}

// fill is one in-flight load; done closes once data/err are set.
type fill struct {
	done chan struct{}
	data []byte
	err  error
}

// New returns a cache holding at most capBytes of payload.
func New[K comparable](capBytes int64) *Cache[K] {
	return &Cache[K]{
		cap:   capBytes,
		ll:    list.New(),
		items: make(map[K]*list.Element),
		fills: make(map[K]*fill),
	}
}

// Get returns the payload cached under k, marking it most recently
// used, and counts a hit or a miss.
func (c *Cache[K]) Get(k K) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.touch(k)
	if ok {
		c.Hits.Add(1)
	} else {
		c.Misses.Add(1)
	}
	return data, ok
}

// touch is the uncounted lookup under c.mu.
func (c *Cache[K]) touch(k K) ([]byte, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K]).data, true
}

// Contains reports presence without counting a lookup or touching the
// LRU order.
func (c *Cache[K]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// Put caches data under k, evicting least recently used entries until
// the bound holds again. A payload larger than the whole bound is not
// cached, and an entry it would have replaced is evicted rather than
// kept: the old bytes no longer describe k.
func (c *Cache[K]) Put(k K, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(k, data, true)
}

// Offer caches data under k only if it fits without evicting anything —
// the §4.4 rule for speculative payloads: what nobody asked for must
// never displace what somebody did. Replacing k's own entry reclaims
// that entry's bytes first. It reports whether the payload was stored.
func (c *Cache[K]) Offer(k K, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store(k, data, false)
}

// store is Put (mayEvict) or Offer (!mayEvict) under c.mu.
func (c *Cache[K]) store(k K, data []byte, mayEvict bool) bool {
	need := int64(len(data))
	el, resident := c.items[k]
	var old int64
	if resident {
		old = int64(len(el.Value.(*entry[K]).data))
	}
	if !mayEvict && need > c.cap-c.size+old {
		return false
	}
	if need > c.cap {
		if resident {
			c.evict(el)
		}
		return false
	}
	if resident {
		el.Value.(*entry[K]).data = data
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&entry[K]{key: k, data: data})
	}
	c.size += need - old
	for c.size > c.cap {
		c.evict(c.ll.Back())
	}
	return true
}

// Fill returns the payload cached under k, running load on a miss and
// caching what it returns. Concurrent misses on one key share a single
// load: the caller that runs it counts the miss, the callers that wait
// for it count hits. An error goes to everyone waiting on that load and
// is never cached.
func (c *Cache[K]) Fill(k K, load func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if data, ok := c.touch(k); ok {
		c.mu.Unlock()
		c.Hits.Add(1)
		return data, nil
	}
	if f, ok := c.fills[k]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.Hits.Add(1)
		}
		return f.data, f.err
	}
	f := &fill{done: make(chan struct{})}
	c.fills[k] = f
	c.mu.Unlock()
	c.Misses.Add(1)

	f.data, f.err = load()
	close(f.done)

	c.mu.Lock()
	delete(c.fills, k)
	if f.err == nil {
		c.store(k, f.data, true)
	}
	c.mu.Unlock()
	return f.data, f.err
}

// Stats is a snapshot of a cache's counters and occupancy.
type Stats struct {
	Hits, Misses, Evictions uint64
	Bytes                   int64
	Entries                 int
}

// Stats reports the cumulative counters and the live occupancy.
func (c *Cache[K]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
		Bytes:     c.size,
		Entries:   len(c.items),
	}
}

func (c *Cache[K]) evict(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K])
	delete(c.items, e.key)
	c.size -= int64(len(e.data))
	c.Evictions.Add(1)
}
