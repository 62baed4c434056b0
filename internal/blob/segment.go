package blob

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Segment files are named seg-NNNNNN.blk inside the store directory.
func segName(id int) string { return fmt.Sprintf("seg-%06d.blk", id) }

// listSegments returns the sorted ids of the segment files in dir.
func listSegments(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	if err != nil {
		return nil, fmt.Errorf("blob: list segments: %w", err)
	}
	var ids []int
	for _, n := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(n), "seg-%06d.blk", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// openSegments opens the existing segment files. Sizes and live bytes
// are filled in later by the index load or the recovery scan.
func (s *Store) openSegments(ids []int) error {
	for _, id := range ids {
		f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("blob: open segment %d: %w", id, err)
		}
		s.segs[id] = &segment{id: id, f: f}
		if id >= s.nextSegID {
			s.nextSegID = id + 1
		}
	}
	return nil
}

// addSegment creates the next segment file and makes it active.
func (s *Store) addSegment() (*segment, error) {
	id := s.nextSegID
	f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blob: create segment %d: %w", id, err)
	}
	s.nextSegID = id + 1
	sg := &segment{id: id, f: f}
	s.segs[id] = sg
	s.active = sg
	return sg, nil
}

// blockLenFor rounds a record size up to its power-of-two size class.
func blockLenFor(need int64) int64 {
	bl := int64(minBlock)
	for bl < need {
		bl <<= 1
	}
	return bl
}

// putHeader serializes a live block header.
func putHeader(hdr []byte, kind uint32, blockLen int64, dataLen uint32, d Digest, crc uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], liveMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], kind)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockLen))
	binary.LittleEndian.PutUint32(hdr[12:16], dataLen)
	copy(hdr[16:48], d[:])
	binary.LittleEndian.PutUint32(hdr[48:52], crc)
}

// writeFreeHeader stamps a block free on disk, keeping its blockLen so
// the recovery scan can skip over it (and rebuild the free lists).
func writeFreeHeader(f *os.File, off, blockLen int64) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], freeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockLen))
	if _, err := f.WriteAt(hdr[:], off); err != nil {
		return fmt.Errorf("blob: write free header: %w", err)
	}
	return nil
}

// writeBlock allocates a block (free list first, else append to the
// active segment) and writes one record into it. excludeSeg marks a
// segment whose free blocks must not be reused (the compaction victim);
// pass -1 for none. Caller holds s.mu.
func (s *Store) writeBlock(kind uint32, d Digest, data []byte, excludeSeg int) (loc, error) {
	// Before the bytes move: retire the index snapshot this write is
	// about to make stale. Must precede alloc too — buddy splits stamp
	// free headers into the segment.
	if err := s.invalidateSnapshotLocked(); err != nil {
		return loc{}, err
	}
	need := int64(hdrSize + len(data))
	bl := blockLenFor(need)
	l, reused, err := s.alloc(bl, excludeSeg)
	if err != nil {
		return loc{}, err
	}
	sg := s.segs[l.seg]
	hdr := make([]byte, hdrSize)
	putHeader(hdr, kind, l.blockLen, uint32(len(data)), d, crc32.ChecksumIEEE(data))
	if _, err := sg.f.WriteAt(hdr, l.off); err != nil {
		return loc{}, fmt.Errorf("blob: write header: %w", err)
	}
	if _, err := sg.f.WriteAt(data, l.off+hdrSize); err != nil {
		return loc{}, fmt.Errorf("blob: write payload: %w", err)
	}
	sg.live += l.blockLen
	if reused {
		s.st.HoleReuses++
	}
	s.dirty[sg.id] = sg
	return l, nil
}

// alloc finds space for a block of size bl: the smallest adequate free
// block (split buddy-style down to size), else an append to the active
// segment, rolling to a fresh segment when full. Caller holds s.mu.
func (s *Store) alloc(bl int64, excludeSeg int) (loc, bool, error) {
	// Search the free lists from the exact class upward.
	for cls := bl; cls <= s.maxClass(); cls <<= 1 {
		list := s.free[cls]
		for i := len(list) - 1; i >= 0; i-- {
			l := list[i]
			sg := s.segs[l.seg]
			if sg == nil || l.seg == excludeSeg || sg.compacting {
				continue
			}
			s.free[cls] = append(list[:i], list[i+1:]...)
			s.freeBytes -= l.blockLen
			// Split down to the requested class, returning the upper
			// halves to the free lists (with on-disk free headers so a
			// recovery scan still walks the segment cleanly).
			for l.blockLen > bl {
				half := l.blockLen >> 1
				upper := loc{seg: l.seg, off: l.off + half, blockLen: half}
				if err := writeFreeHeader(sg.f, upper.off, upper.blockLen); err != nil {
					return loc{}, false, err
				}
				s.free[half] = append(s.free[half], upper)
				s.freeBytes += half
				s.dirty[sg.id] = sg
				l.blockLen = half
			}
			return l, true, nil
		}
	}
	// Append to the active segment, rolling when the block won't fit.
	if s.active.size > 0 && s.active.size+bl > s.opts.SegmentSize {
		if _, err := s.addSegment(); err != nil {
			return loc{}, false, err
		}
	}
	l := loc{seg: s.active.id, off: s.active.size, blockLen: bl}
	s.active.size += bl
	return l, false, nil
}

// maxClass returns the largest size class worth searching.
func (s *Store) maxClass() int64 {
	max := int64(0)
	for cls := range s.free {
		if cls > max {
			max = cls
		}
	}
	return max
}

// freeBlockLocked stamps a block free on disk and parks it in the free
// lists for reuse. Caller holds s.mu.
func (s *Store) freeBlockLocked(l loc) {
	sg := s.segs[l.seg]
	if sg == nil {
		return
	}
	// Best-effort snapshot invalidation: if it fails, a crash may trust
	// the stale snapshot and resurrect this block as live — a leak plus
	// loud read errors, never silent reuse corruption (reuse goes
	// through writeBlock, which invalidates strictly).
	_ = s.invalidateSnapshotLocked()
	// A failed stamp leaves the block live on disk: the recovery scan
	// would resurrect it as an orphan, which ResetRefs frees again —
	// a leak until then, never corruption.
	_ = writeFreeHeader(sg.f, l.off, l.blockLen)
	s.dirty[sg.id] = sg
	sg.live -= l.blockLen
	s.free[l.blockLen] = append(s.free[l.blockLen], l)
	s.freeBytes += l.blockLen
}

// dropSegmentFree removes every free-list entry pointing into seg and
// returns them, so an aborted compaction can put them back. Caller
// holds s.mu.
func (s *Store) dropSegmentFree(segID int) []loc {
	var dropped []loc
	for cls, list := range s.free {
		kept := list[:0]
		for _, l := range list {
			if l.seg == segID {
				s.freeBytes -= l.blockLen
				dropped = append(dropped, l)
				continue
			}
			kept = append(kept, l)
		}
		if len(kept) == 0 {
			delete(s.free, cls)
		} else {
			s.free[cls] = kept
		}
	}
	return dropped
}

// restoreFreeLocked re-parks entries removed by dropSegmentFree. The
// blocks are still free-stamped on disk — nothing allocated them while
// their segment was marked compacting. Caller holds s.mu.
func (s *Store) restoreFreeLocked(locs []loc) {
	for _, l := range locs {
		s.free[l.blockLen] = append(s.free[l.blockLen], l)
		s.freeBytes += l.blockLen
	}
}

// readBlockPayload reads dataLen payload bytes of the block at off and
// verifies them against the header's CRC.
func readBlockPayload(f *os.File, off int64, dataLen uint32) ([]byte, error) {
	data := make([]byte, dataLen)
	if err := readBlockInto(f, off, data); err != nil {
		return nil, err
	}
	return data, nil
}

// readBlockInto is readBlockPayload into the caller's buffer: the block
// at off must hold exactly len(dst) payload bytes. On error dst's
// contents are unspecified.
func readBlockInto(f *os.File, off int64, dst []byte) error {
	var hdr [hdrSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return fmt.Errorf("read header at %d: %w", off, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != liveMagic {
		return fmt.Errorf("no live block at %d", off)
	}
	if got := binary.LittleEndian.Uint32(hdr[12:16]); uint64(got) != uint64(len(dst)) {
		return fmt.Errorf("block at %d holds %d bytes, want %d", off, got, len(dst))
	}
	if _, err := io.ReadFull(io.NewSectionReader(f, off+hdrSize, int64(len(dst))), dst); err != nil {
		return fmt.Errorf("read payload at %d: %w", off, err)
	}
	if crc32.ChecksumIEEE(dst) != binary.LittleEndian.Uint32(hdr[48:52]) {
		return fmt.Errorf("checksum mismatch at %d", off)
	}
	return nil
}

// encodeManifest serializes an object's chunk list:
//
//	length  uint32 (payload bytes)
//	nchunks uint32
//	nchunks × (digest [32]byte | dataLen is implied by order+length)
func encodeManifest(length uint32, chunks []Digest) []byte {
	buf := make([]byte, 8+32*len(chunks))
	binary.LittleEndian.PutUint32(buf[0:4], length)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(chunks)))
	for i, d := range chunks {
		copy(buf[8+32*i:], d[:])
	}
	return buf
}

// decodeManifest parses encodeManifest's output.
func decodeManifest(data []byte) (length uint32, chunks []Digest, err error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("manifest too short (%d bytes)", len(data))
	}
	length = binary.LittleEndian.Uint32(data[0:4])
	n := binary.LittleEndian.Uint32(data[4:8])
	if int(n)*32 != len(data)-8 {
		return 0, nil, fmt.Errorf("manifest shape mismatch: %d chunks, %d bytes", n, len(data))
	}
	chunks = make([]Digest, n)
	for i := range chunks {
		copy(chunks[i][:], data[8+32*i:])
	}
	return length, chunks, nil
}
