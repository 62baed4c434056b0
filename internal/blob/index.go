package blob

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// rebuildFromScan builds the index by walking every block of every
// segment; it is the only way Open learns what the store holds. Live
// chunks and manifests enter the index, free blocks the free lists, and
// duplicate digests (the artifact of a crash between a compaction copy
// and the source delete) keep the first copy and free the rest.
// Manifest refcounts are set to 1 — the store layer's ResetRefs
// recomputes the exact counts from the table rows right after Open.
//
// A block that fails verification costs only that block:
//
//   - a header that parses (live or free magic, a power-of-two blockLen,
//     a payload that fits the block) but whose payload fails its CRC, or
//     runs past the file end, is stepped over by its blockLen;
//   - a header that does not parse is stepped over in minBlock steps,
//     since every block starts on a multiple of minBlock, until a free
//     stamp or a live block that verifies is found again. Until then a
//     live header whose payload fails is not believed about its length.
//
// A failed block is never indexed, so no later put dedups against it;
// its bytes are dead space that compaction of its segment reclaims. The
// file is truncated after the last block the walk kept.
func (s *Store) rebuildFromScan() error {
	type rawManifest struct {
		d    Digest
		me   *manifestEntry
		data []byte
	}
	var manifests []rawManifest
	segIDs := make([]int, 0, len(s.segs))
	for id := range s.segs {
		segIDs = append(segIDs, id)
	}
	sort.Ints(segIDs)

	var payload []byte // one buffer for every payload the walk verifies
	for _, id := range segIDs {
		sg := s.segs[id]
		info, err := sg.f.Stat()
		if err != nil {
			return fmt.Errorf("blob: stat segment %d: %w", id, err)
		}
		fileSize := info.Size()
		var off, end int64 // end: just past the last block kept
		synced := true     // off is a block boundary the walk believes
		for off+12 <= fileSize {
			var hdr [hdrSize]byte
			n, _ := sg.f.ReadAt(hdr[:min(int64(hdrSize), fileSize-off)], off)
			magic := binary.LittleEndian.Uint32(hdr[0:4])
			blockLen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
			dataLen := int64(binary.LittleEndian.Uint32(hdr[12:16]))
			parses := n >= 12 && blockLen >= minBlock && blockLen&(blockLen-1) == 0 &&
				(magic == freeMagic || magic == liveMagic && dataLen <= blockLen-hdrSize)
			switch {
			case !parses:
				synced = false
				off += minBlock
				continue
			case magic == freeMagic:
				s.free[blockLen] = append(s.free[blockLen], loc{seg: id, off: off, blockLen: blockLen})
				s.freeBytes += blockLen
				synced = true
				off += blockLen
				end = off
				continue
			}
			kind := binary.LittleEndian.Uint32(hdr[4:8])
			ok := n == hdrSize && off+hdrSize+dataLen <= fileSize &&
				(kind == kindChunk || kind == kindManifest)
			if ok {
				if int64(cap(payload)) < dataLen {
					payload = make([]byte, dataLen)
				}
				payload = payload[:dataLen]
				_, err := io.ReadFull(io.NewSectionReader(sg.f, off+hdrSize, dataLen), payload)
				ok = err == nil && crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[48:52])
			}
			if !ok {
				// Trust a failed block's length only where its header
				// starts at a boundary the walk believes.
				if synced {
					off += blockLen
				} else {
					off += minBlock
				}
				continue
			}
			synced = true
			var d Digest
			copy(d[:], hdr[16:48])
			l := loc{seg: id, off: off, blockLen: blockLen}
			sg.live += blockLen
			switch {
			case kind == kindChunk && s.chunks[d] == nil:
				s.chunks[d] = &chunkEntry{loc: l, dataLen: uint32(dataLen)}
			case kind == kindManifest && s.manifests[d] == nil:
				me := &manifestEntry{loc: l, dataLen: uint32(dataLen), refs: 1}
				s.manifests[d] = me
				manifests = append(manifests, rawManifest{d: d, me: me, data: bytes.Clone(payload)})
			default: // a duplicate digest: the first copy wins
				s.freeBlockLocked(l)
			}
			off += blockLen
			end = off
		}
		if end < fileSize {
			if err := sg.f.Truncate(end); err != nil {
				return fmt.Errorf("blob: truncate segment %d after its last good block: %w", id, err)
			}
		}
		sg.size = end
	}

	// Decode manifests and drop any whose chunks did not survive (they
	// were mid-write at the crash; no durable row can reference them).
	for _, rm := range manifests {
		length, chunks, err := decodeManifest(rm.data)
		complete := err == nil
		if complete {
			var total int64
			for _, cd := range chunks {
				ce := s.chunks[cd]
				if ce == nil {
					complete = false
					break
				}
				total += int64(ce.dataLen)
			}
			if total != int64(length) {
				complete = false
			}
		}
		if !complete {
			s.freeBlockLocked(rm.me.loc)
			delete(s.manifests, rm.d)
			continue
		}
		rm.me.length = length
		rm.me.chunks = chunks
	}
	// Chunk refcounts derive from the surviving manifests; orphans from
	// puts that never reached a manifest are freed.
	for _, me := range s.manifests {
		for _, cd := range me.chunks {
			if ce := s.chunks[cd]; ce != nil {
				ce.refs++
			}
		}
	}
	for d, ce := range s.chunks {
		if ce.refs == 0 {
			s.freeBlockLocked(ce.loc)
			delete(s.chunks, d)
		}
	}
	return nil
}
