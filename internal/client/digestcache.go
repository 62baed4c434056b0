package client

import (
	"sync"
	"sync/atomic"

	"mmconf/internal/blob"
	"mmconf/internal/bytecache"
)

// The client-side digest cache (§4.4 extended): media payloads keyed by
// their content digest. On a repeat fetch the client sends the digest
// it holds in IfDigestAbsent; a server whose object still has that
// digest answers NotModified with no payload, and the client serves the
// cached bytes — an unchanged image costs a round trip, not a transfer.
// Because the key is the content itself, two object ids with identical
// bytes share one entry, and an object whose payload reverts to one
// seen earlier is a hit too.

// objectKey names a media object: its table and its id within it.
type objectKey struct {
	kind byte // 'i'mage, 'a'udio, 'c'ompressed stream
	id   uint64
}

// digestCache is an object → last-seen-digest map over the byte-bounded
// payload cache. An object whose payload the LRU has since evicted
// drops out of the map on its next lookup.
type digestCache struct {
	payloads *bytecache.Cache[blob.Digest]

	mu   sync.Mutex
	byID map[objectKey]blob.Digest

	hits, misses atomic.Uint64
}

func newDigestCache(maxBytes int64) *digestCache {
	return &digestCache{
		payloads: bytecache.New[blob.Digest](maxBytes),
		byID:     make(map[objectKey]blob.Digest),
	}
}

// lookup returns the digest and payload last seen for the object.
// Returning both together keeps the conditional round trip race-free:
// the bytes backing a NotModified answer are already in hand.
func (dc *digestCache) lookup(id objectKey) (digest, data []byte, ok bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	d, ok := dc.byID[id]
	if !ok {
		return nil, nil, false
	}
	if data, ok = dc.payloads.Get(d); !ok {
		delete(dc.byID, id)
		return nil, nil, false
	}
	return d[:], data, true
}

// store records the payload the server just returned for the object.
func (dc *digestCache) store(id objectKey, digest, data []byte) {
	if len(digest) != len(blob.Digest{}) {
		return
	}
	d := blob.Digest(digest)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	dc.payloads.Put(d, data)
	dc.byID[id] = d
}

// DigestCacheStats counts the client's conditional-fetch outcomes.
type DigestCacheStats struct {
	// Hits counts fetches answered NotModified and served from the
	// cache; Misses counts fetches that transferred the payload (cold,
	// changed object, or cache disabled mid-race).
	Hits, Misses uint64
	// Bytes is the payload total currently cached.
	Bytes int64
}

// DigestCacheStats reports the digest cache's counters (zero when the
// cache is disabled).
func (c *Client) DigestCacheStats() DigestCacheStats {
	if c.digests == nil {
		return DigestCacheStats{}
	}
	return DigestCacheStats{
		Hits:   c.digests.hits.Load(),
		Misses: c.digests.misses.Load(),
		Bytes:  c.digests.payloads.Stats().Bytes,
	}
}
