// Replication primitives: the digest-diff protocol two stores speak to
// converge without copying bytes either side already holds. A sender
// exports an object's manifest (Manifest), the receiver diffs it against
// its own chunk index (MissingChunks), pulls exactly the absent chunks
// (GetChunk on the sender), and materializes the object locally
// (PutFromChunks) — dedup across objects, rooms and nodes falls out of
// content addressing for free. Everything here reuses the store's
// existing block and refcount machinery: PutFromChunks commits through
// Put's commitLocked and GetChunk reads through Get's read, so
// replication never invents a second write or read path.
package blob

import (
	"crypto/sha256"
	"fmt"
	"slices"
)

// Manifest returns the chunk digest list of the stored object h, in
// payload order. The zero handle returns ErrNoBlob; an object the store
// does not hold returns ErrNotFound.
func (s *Store) Manifest(h Handle) ([]Digest, error) {
	if h.IsZero() {
		return nil, ErrNoBlob
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.manifests[h.Digest]
	if me == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	return append([]Digest(nil), me.chunks...), nil
}

// MissingChunks reports which of the given chunk digests the store does
// not hold, preserving first-occurrence order and dropping repeats — the
// receiver-side manifest diff. The result is minimal by construction:
// no returned digest is present locally, and no digest appears twice.
func (s *Store) MissingChunks(chunks []Digest) []Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []Digest
	seen := make(map[Digest]struct{}, len(chunks))
	for _, cd := range chunks {
		if _, dup := seen[cd]; dup {
			continue
		}
		seen[cd] = struct{}{}
		if s.chunks[cd] == nil {
			missing = append(missing, cd)
		}
	}
	return missing
}

// GetChunk reads one stored chunk's payload — the sender side of a chunk
// pull. The block CRC is verified by the read and the payload is checked
// against the chunk digest, so a replicating node can never ship a
// corrupt chunk onward. It shares Get's read, retry included.
func (s *Store) GetChunk(cd Digest) ([]byte, error) {
	return s.read(Handle{Digest: cd}, false)
}

// PutFromChunks materializes an object from a replicated manifest: the
// declared digest and length, the ordered chunk list, and — for chunks
// the store does not already hold — their payload bytes in data. Chunks
// already present are shared (reference bump, no disk write), exactly as
// a local Put would; an object already present only bumps its refcount
// and touches no chunk at all. The assembled payload is verified against
// d before anything is committed, so a lying or corrupted sender cannot
// plant an object whose content does not match its address. As with Put,
// the returned handle carries the caller's own reference.
func (s *Store) PutFromChunks(d Digest, length uint32, chunks []Digest, data map[Digest][]byte) (Handle, error) {
	if int64(length) > MaxBlobSize {
		return Handle{}, fmt.Errorf("blob: %d bytes exceeds the %d-byte BLOB limit", length, int64(MaxBlobSize))
	}
	h := Handle{Digest: d, Length: length}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Handle{}, fmt.Errorf("blob: store closed")
	}
	s.st.Puts++
	if me := s.manifests[d]; me != nil {
		me.refs++
		s.st.DedupHits++
		s.st.DedupBytes += int64(length)
		return h, nil
	}

	// Verify before committing: hash every chunk in manifest order —
	// local chunks read back from their blocks, transferred chunks from
	// data — and require the result to be exactly the claimed identity.
	hash := sha256.New()
	var total int64
	parts := make([][]byte, len(chunks))
	for i, cd := range chunks {
		var chunk []byte
		if ce := s.chunks[cd]; ce != nil {
			sg := s.segs[ce.seg]
			if sg == nil {
				return Handle{}, fmt.Errorf("blob: %s: chunk %x in missing segment %d", h, cd[:8], ce.seg)
			}
			b, err := readBlockPayload(sg.f, ce.off, ce.dataLen)
			if err != nil {
				return Handle{}, fmt.Errorf("blob: %s: chunk %x: %w", h, cd[:8], err)
			}
			chunk = b
		} else {
			chunk = data[cd]
			if chunk == nil {
				return Handle{}, fmt.Errorf("blob: %s: transfer is missing chunk %x", h, cd[:8])
			}
			if Sum(chunk) != cd {
				return Handle{}, fmt.Errorf("blob: %s: transferred chunk %x does not match its digest", h, cd[:8])
			}
		}
		hash.Write(chunk)
		total += int64(len(chunk))
		parts[i] = chunk
	}
	var sum Digest
	hash.Sum(sum[:0])
	if total != int64(length) || sum != d {
		return Handle{}, fmt.Errorf("blob: %s: assembled payload is %d bytes with digest %x", h, total, sum[:8])
	}
	s.st.BytesIn += int64(length)

	if err := s.commitLocked(d, length, slices.Clone(chunks), parts); err != nil {
		return Handle{}, err
	}
	return h, nil
}
