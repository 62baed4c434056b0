// Package prefetch implements the preference-based pre-fetching of §4.4
// of the paper (formalized in their TR [12], "Predicting Likely Components
// in CP-net based Multimedia Systems"): because the whole document cannot
// be downloaded ahead of time under limited client buffer and bandwidth,
// the client downloads the components *most likely to be requested*,
// using the buffer as a cache. Likelihood comes from the preference
// structure itself: the current optimal configuration is needed now, and
// the configurations reachable by the viewer's single next choice are
// ranked by how preferred that choice is.
//
// The package also provides the demand-only LRU and no-cache baselines
// the E8 experiment compares against.
package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"mmconf/internal/bytecache"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
)

// Candidate is one payload worth holding in the client buffer.
type Candidate struct {
	Component string
	Value     string
	ObjectID  uint64
	Bytes     int64
	// Kind is the presentation's media kind, captured at ranking time so
	// callers (the server's push-prefetch loop) need not re-read the
	// document concurrently with mutating operations.
	Kind document.MediaKind
	// Score in (0, 1]: 1 for payloads of the current optimal view,
	// decaying with the preference rank of the hypothetical next choice
	// that would require the payload.
	Score float64
}

// lookaheadWeight scales one-step-lookahead candidates relative to the
// certain ones.
const lookaheadWeight = 0.5

// Rank returns candidate payloads in descending likelihood given the
// document and the current viewer choices. Payloads with ObjectID 0
// (inline or hidden forms) are not fetchable and are skipped.
func Rank(doc *document.Document, choices cpnet.Outcome) ([]Candidate, error) {
	base, err := doc.ReconfigPresentation(choices)
	if err != nil {
		return nil, err
	}
	best := make(map[uint64]Candidate)
	add := func(v document.View, score float64) {
		for _, c := range doc.Components() {
			if c.Composite() || !v.Visible[c.Name] {
				continue
			}
			p, err := c.Presentation(v.Outcome[c.Name])
			if err != nil || p.ObjectID == 0 {
				continue
			}
			cand := Candidate{
				Component: c.Name, Value: p.Name,
				ObjectID: p.ObjectID, Bytes: p.Bytes, Kind: p.Kind, Score: score,
			}
			if old, ok := best[p.ObjectID]; !ok || cand.Score > old.Score {
				best[p.ObjectID] = cand
			}
		}
	}
	add(base, 1.0)

	// One-step lookahead: the viewer's next click pins one variable to an
	// alternative value. Alternatives that the author ranks higher (given
	// everything else) are likelier clicks.
	for _, v := range doc.Prefs.Variables() {
		current := base.Outcome[v.Name]
		for rank, alt := range v.Domain {
			if alt == current {
				continue
			}
			ev := choices.Clone()
			ev[v.Name] = alt
			view, err := doc.ReconfigPresentation(ev)
			if err != nil {
				return nil, err
			}
			score := lookaheadWeight / float64(2+rank)
			add(view, score)
		}
	}
	out := make([]Candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	return out, nil
}

// Cache is a byte-budgeted LRU buffer of fetched payloads keyed by
// object id — the "user's buffer as a cache" of §4.4. It is safe for
// concurrent use: the server push-prefetch path fills it while the
// viewer's Demand path reads it.
type Cache struct {
	capacity int64
	lru      *bytecache.Cache[uint64]
	// tags holds the content digest a pushed payload arrived with. mu
	// makes a payload and its tag change together; an entry the LRU has
	// since evicted loses its tag on the next Digest call.
	mu   sync.Mutex
	tags map[uint64]string
}

// NewCache returns a cache with the given byte capacity.
func NewCache(capacity int64) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("prefetch: capacity %d must be positive", capacity)
	}
	return &Cache{capacity: capacity, lru: bytecache.New[uint64](capacity), tags: make(map[uint64]string)}, nil
}

// Get returns the cached payload and records a hit or miss.
func (c *Cache) Get(id uint64) ([]byte, bool) { return c.lru.Get(id) }

// Digest returns the digest tag stored alongside a cached payload, if
// any, without touching LRU order or hit statistics.
func (c *Cache) Digest(id uint64) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lru.Contains(id) {
		delete(c.tags, id)
	}
	digest, ok := c.tags[id]
	return digest, ok
}

// Contains reports presence without recording a hit or miss (used by the
// prefetcher to avoid distorting statistics).
func (c *Cache) Contains(id uint64) bool { return c.lru.Contains(id) }

// Offer inserts a speculative payload only if it fits without evicting
// anything — the acceptance rule for server push-prefetch: an unasked-for
// payload must never displace content the viewer demanded or a
// higher-ranked candidate already warmed. Replacing an existing entry for
// the same id reclaims that entry's bytes first. It reports whether the
// payload was stored.
func (c *Cache) Offer(id uint64, digest string, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lru.Offer(id, data) {
		return false // keep the resident bytes and their tag
	}
	c.tag(id, digest)
	return true
}

// Put inserts a payload, evicting least-recently-used entries as needed.
// Payloads larger than the whole capacity are not cached — and if such an
// oversized payload replaces an existing id, the stale entry is evicted
// rather than silently kept (the old bytes no longer describe the object).
func (c *Cache) Put(id uint64, data []byte) {
	c.PutDigest(id, "", data)
}

// PutDigest is Put with a content digest tag attached to the entry, so
// server-pushed payloads can be verified against the digest the demand
// path would have fetched.
func (c *Cache) PutDigest(id uint64, digest string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(id, data)
	c.tag(id, digest)
}

// tag records (or, for "", clears) id's digest tag under c.mu.
func (c *Cache) tag(id uint64, digest string) {
	if digest == "" {
		delete(c.tags, id)
	} else {
		c.tags[id] = digest
	}
}

// Used returns the occupied bytes.
func (c *Cache) Used() int64 { return c.lru.Stats().Bytes }

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	st := c.lru.Stats()
	return int64(st.Hits), int64(st.Misses), int64(st.Evictions)
}

// FetchFunc retrieves a payload from the database server by object id.
type FetchFunc func(objectID uint64) ([]byte, error)

// Prefetcher couples a cache with a fetch path.
type Prefetcher struct {
	Cache *Cache
	Fetch FetchFunc
	// PrefetchedBytes counts bytes fetched ahead of demand.
	PrefetchedBytes int64
}

// NewPrefetcher wires a cache to a fetch function.
func NewPrefetcher(cache *Cache, fetch FetchFunc) (*Prefetcher, error) {
	if cache == nil || fetch == nil {
		return nil, fmt.Errorf("prefetch: need a cache and a fetch function")
	}
	return &Prefetcher{Cache: cache, Fetch: fetch}, nil
}

// Inject stores a payload the server pushed ahead of demand (the QoS
// loop's push-prefetch). Unlike Warm it costs the client no fetch, but
// the same no-eviction rule applies: the payload is dropped if it does
// not fit in the buffer's free space. It reports whether it was kept.
func (p *Prefetcher) Inject(id uint64, digest string, data []byte) bool {
	return p.Cache.Offer(id, digest, data)
}

// Demand returns the payload for an object the viewer needs right now,
// through the cache.
func (p *Prefetcher) Demand(objectID uint64) ([]byte, error) {
	if data, ok := p.Cache.Get(objectID); ok {
		return data, nil
	}
	data, err := p.Fetch(objectID)
	if err != nil {
		return nil, err
	}
	p.Cache.Put(objectID, data)
	return data, nil
}

// Warm fetches ranked candidates ahead of demand until budget bytes have
// been prefetched this call or the ranking is exhausted. Already-cached
// payloads are skipped without touching hit statistics. Warming is
// speculative, so it never evicts: candidates that do not fit in the
// buffer's remaining free space are skipped (a lower-ranked candidate
// must not push out a higher-ranked or recently demanded payload). It
// returns the number of payloads fetched.
func (p *Prefetcher) Warm(doc *document.Document, choices cpnet.Outcome, budget int64) (int, error) {
	cands, err := Rank(doc, choices)
	if err != nil {
		return 0, err
	}
	fetched := 0
	var spent int64
	for _, cand := range cands {
		if spent >= budget {
			break
		}
		if p.Cache.Contains(cand.ObjectID) {
			continue
		}
		avail := p.Cache.Capacity() - p.Cache.Used()
		if cand.Bytes > avail {
			continue // would evict better content; skip, try smaller candidates
		}
		data, err := p.Fetch(cand.ObjectID)
		if err != nil {
			return fetched, fmt.Errorf("prefetch: warming object %d: %w", cand.ObjectID, err)
		}
		if int64(len(data)) > avail {
			continue // size estimate was low; still refuse to evict
		}
		p.Cache.Put(cand.ObjectID, data)
		spent += int64(len(data))
		p.PrefetchedBytes += int64(len(data))
		fetched++
	}
	return fetched, nil
}
