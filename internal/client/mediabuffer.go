package client

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mmconf/internal/blob"
	"mmconf/internal/bytecache"
	"mmconf/internal/cpnet"
	"mmconf/internal/mediadb"
	"mmconf/internal/prefetch"
)

// The client's media buffer (§4.4): one byte-bounded cache of media
// payloads keyed by their content digest, under an object → digest map
// keyed by (table, id). Every payload the client gets enters it — a
// fetched response, a server prefetch push, a warmed candidate — and
// every fetch reads it: GetImage, GetAudio and GetCmp send the digest
// the buffer holds for the object in IfDigestAbsent; a server whose
// object still has that digest answers NotModified with no payload, and
// the client serves the held bytes. A pushed or warmed object costs a
// round trip, not a transfer; a changed object transfers, because its
// digest no longer matches. Because payloads are keyed by content, two
// objects with identical bytes share one entry.

// objectKey names a media object: its table and its id within it (ids
// are per table, see mediadb.KindTable).
type objectKey struct {
	table string
	id    uint64
}

// mediaBuffer is the object → digest map over the payload cache. An
// object whose payload the LRU has since evicted drops out of the map on
// its next lookup. A nil *mediaBuffer is a client with no buffer: every
// fetch transfers.
type mediaBuffer struct {
	capacity int64
	payloads *bytecache.Cache[blob.Digest]

	mu   sync.Mutex
	byID map[objectKey]blob.Digest

	hits, misses atomic.Uint64
}

func newMediaBuffer(capacity int64) *mediaBuffer {
	return &mediaBuffer{
		capacity: capacity,
		payloads: bytecache.New[blob.Digest](capacity),
		byID:     make(map[objectKey]blob.Digest),
	}
}

// lookup returns the digest and payload held for the object. Returning
// both together keeps the conditional round trip race-free: the bytes
// backing a NotModified answer are already in hand.
func (b *mediaBuffer) lookup(k objectKey) (digest, data []byte) {
	if b == nil {
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.byID[k]
	if !ok {
		return nil, nil
	}
	if data, ok = b.payloads.Get(d); !ok {
		delete(b.byID, k)
		return nil, nil
	}
	return d[:], data
}

// holds reports whether the object's payload is resident, counting no
// lookup and leaving the LRU order alone.
func (b *mediaBuffer) holds(k objectKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.byID[k]
	return ok && b.payloads.Contains(d)
}

// file records a payload under the object. A speculative payload (a push
// or a warm) is offered: it is kept only if it fits without evicting
// anything, because what nobody asked for must never displace what
// somebody did.
func (b *mediaBuffer) file(k objectKey, digest, data []byte, speculative bool) {
	if b == nil || len(digest) != len(blob.Digest{}) {
		return
	}
	d := blob.Digest(digest)
	b.mu.Lock()
	defer b.mu.Unlock()
	if speculative {
		if !b.payloads.Offer(d, data) {
			return
		}
	} else {
		b.payloads.Put(d, data)
	}
	b.byID[k] = d
}

// fetch is the one media fetch. call sends the request with known as its
// IfDigestAbsent and returns the response's NotModified flag, digest and
// payload. A NotModified answer is served from the buffer (a hit); a
// transferred payload is filed in it (a miss). A nil buffer leaves known
// nil, so every fetch transfers.
func (b *mediaBuffer) fetch(k objectKey, speculative bool, call func(known []byte) (notModified bool, digest, data []byte, err error)) ([]byte, error) {
	known, held := b.lookup(k)
	notModified, digest, data, err := call(known)
	if err != nil {
		return nil, err
	}
	if notModified {
		if known == nil {
			return nil, fmt.Errorf("client: server elided %s object %d without a conditional request", k.table, k.id)
		}
		b.hits.Add(1)
		return held, nil
	}
	if b != nil {
		b.misses.Add(1)
		b.file(k, digest, data, speculative)
	}
	return data, nil
}

// BufferStats counts the media buffer's fetch outcomes.
type BufferStats struct {
	// Hits counts fetches answered from the buffer; Misses counts fetches
	// that transferred the payload (cold, changed or evicted object).
	Hits, Misses uint64
	// Bytes is the payload total the buffer holds.
	Bytes int64
}

// BufferStats reports the media buffer's counters (zero while no Join
// has given the client a buffer).
func (c *Client) BufferStats() BufferStats {
	b := c.buffer.Load()
	if b == nil {
		return BufferStats{}
	}
	return BufferStats{
		Hits:   b.hits.Load(),
		Misses: b.misses.Load(),
		Bytes:  b.payloads.Stats().Bytes,
	}
}

// WarmBuffer fetches the payloads likeliest to be displayed next into the
// client's media buffer (§4.4), given the current view's choices, up to
// budget bytes. It returns the number of payloads fetched.
func (s *Session) WarmBuffer(choices cpnet.Outcome, budget int64) (int, error) {
	b := s.client.buffer.Load()
	if b == nil {
		return 0, fmt.Errorf("client: no media buffer (join with bufferBytes > 0)")
	}
	n, _, err := prefetch.Warm(s.Doc, choices, budget, warming{s.client, b})
	return n, err
}

// warming is the media buffer as the warm loop fills it: a candidate is
// fetched the way its table says and offered, never put.
type warming struct {
	c *Client
	b *mediaBuffer
}

func (w warming) Holds(cand prefetch.Candidate) bool {
	return w.b.holds(objectKey{mediadb.KindTable(cand.Kind), cand.ObjectID})
}

func (w warming) Free() int64 { return w.b.capacity - w.b.payloads.Stats().Bytes }

func (w warming) Fetch(cand prefetch.Candidate) (int64, error) {
	switch mediadb.KindTable(cand.Kind) {
	case mediadb.ImageTable:
		r, err := w.c.getImageResp(cand.ObjectID, true)
		if err != nil {
			return 0, err
		}
		return int64(len(r.Data)), nil
	case mediadb.AudioTable:
		r, err := w.c.getAudioResp(cand.ObjectID, true)
		if err != nil {
			return 0, err
		}
		return int64(len(r.Data)), nil
	case mediadb.CmpTable:
		// The full stream: the only stream form the buffer holds.
		r, err := w.c.getCmpResp(cand.ObjectID, 0, true)
		if err != nil {
			return 0, err
		}
		return int64(len(r.Data)), nil
	}
	return 0, nil // Rank yields no kind without a table
}
