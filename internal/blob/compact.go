package blob

import (
	"fmt"
	"os"
	"path/filepath"
)

// kickCompactor nudges the background compactor without blocking.
// Caller holds s.mu.
func (s *Store) kickCompactor() {
	if s.opts.CompactRatio <= 0 || s.closed {
		return
	}
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
}

// compactor is the background loop: whenever frees accumulate it
// migrates live blocks off sparse segments and deletes them. Reads are
// never blocked — a segment is only removed after in-flight readers
// drain, and block identities (digests) are untouched by the moves.
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case <-s.compactKick:
		}
		for {
			select {
			case <-s.stopc:
				return
			default:
			}
			id, ok := s.pickVictim(s.opts.CompactRatio)
			if !ok {
				break
			}
			if err := s.compactSegment(id); err != nil {
				break // disk trouble: stop trying until the next kick
			}
		}
	}
}

// pickVictim selects the sparsest non-active segment whose live ratio
// is below threshold, if any.
func (s *Store) pickVictim(threshold float64) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestRatio, found := 0, threshold, false
	for id, sg := range s.segs {
		if sg == s.active || sg.compacting || sg.size == 0 {
			continue
		}
		ratio := float64(sg.live) / float64(sg.size)
		if ratio < bestRatio {
			best, bestRatio, found = id, ratio, true
		}
	}
	return best, found
}

// Compact forces a full compaction pass: the active segment is rolled
// if it holds dead space, then every segment with any dead space is
// drained and deleted. It returns the file bytes returned to the
// filesystem. Reads and writes proceed concurrently.
func (s *Store) Compact() (reclaimed int64, err error) {
	s.mu.Lock()
	before := int64(0)
	for _, sg := range s.segs {
		before += sg.size
	}
	if s.active.size > 0 && s.active.live < s.active.size {
		if _, err := s.addSegment(); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	s.mu.Unlock()

	for {
		id, ok := s.pickVictim(1.0)
		if !ok {
			break
		}
		if err := s.compactSegment(id); err != nil {
			return 0, err
		}
	}

	s.mu.Lock()
	after := int64(0)
	for _, sg := range s.segs {
		after += sg.size
	}
	s.mu.Unlock()
	if after > before {
		return 0, nil
	}
	return before - after, nil
}

// compactSegment migrates every live block out of segment id, then
// deletes the file. Copies go block-at-a-time with the lock dropped
// during reads, so concurrent Gets and Puts interleave freely; a block
// released mid-pass is simply skipped. A crash between a copy and the
// delete leaves a duplicate digest on disk, which the recovery scan
// dedups (first copy wins, later copies are freed).
func (s *Store) compactSegment(id int) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	sg := s.segs[id]
	if sg == nil || sg == s.active || s.closed {
		s.mu.Unlock()
		return nil
	}
	sg.compacting = true
	// Its free blocks will die with the file: stop handing them out. If
	// the pass aborts with the segment still alive, they must come back
	// (abort) — otherwise the space is unallocatable and FreeBytes
	// undercounts until the next Open's scan.
	dropped := s.dropSegmentFree(id)
	abort := func() {
		s.restoreFreeLocked(dropped)
		sg.compacting = false
	}

	type move struct {
		kind uint32
		d    Digest
	}
	var moves []move
	for d, ce := range s.chunks {
		if ce.seg == id {
			moves = append(moves, move{kindChunk, d})
		}
	}
	for d, me := range s.manifests {
		if me.seg == id {
			moves = append(moves, move{kindManifest, d})
		}
	}
	s.mu.Unlock()

	for _, mv := range moves {
		s.mu.Lock()
		if s.closed {
			abort()
			s.mu.Unlock()
			return nil
		}
		var l loc
		var dataLen uint32
		switch mv.kind {
		case kindChunk:
			ce := s.chunks[mv.d]
			if ce == nil || ce.seg != id {
				s.mu.Unlock()
				continue // released or already moved
			}
			l, dataLen = ce.loc, ce.dataLen
		case kindManifest:
			me := s.manifests[mv.d]
			if me == nil || me.seg != id {
				s.mu.Unlock()
				continue
			}
			l, dataLen = me.loc, me.dataLen
		}
		sg.refs++
		s.mu.Unlock()

		data, readErr := readBlockPayload(sg.f, l.off, dataLen)

		s.mu.Lock()
		sg.refs--
		s.cond.Broadcast()
		if readErr != nil {
			abort()
			s.mu.Unlock()
			return fmt.Errorf("blob: compact segment %d: %w", id, readErr)
		}
		// Re-check the entry is still ours (a concurrent Release may
		// have freed it while the lock was down).
		stale := false
		switch mv.kind {
		case kindChunk:
			ce := s.chunks[mv.d]
			stale = ce == nil || ce.loc != l
		case kindManifest:
			me := s.manifests[mv.d]
			stale = me == nil || me.loc != l
		}
		if stale {
			s.mu.Unlock()
			continue
		}
		if s.active == sg {
			// A roll raced us; shouldn't happen (active never picked),
			// but never append into the segment being drained.
			if _, err := s.addSegment(); err != nil {
				abort()
				s.mu.Unlock()
				return err
			}
		}
		nl, err := s.writeBlock(mv.kind, mv.d, data, id)
		if err != nil {
			abort()
			s.mu.Unlock()
			return err
		}
		switch mv.kind {
		case kindChunk:
			s.chunks[mv.d].loc = nl
		case kindManifest:
			s.manifests[mv.d].loc = nl
		}
		sg.live -= l.blockLen
		s.mu.Unlock()
	}

	s.mu.Lock()
	// Copies must be durable before the originals disappear.
	if err := s.syncLocked(); err != nil {
		abort()
		s.mu.Unlock()
		return err
	}
	for sg.refs > 0 {
		s.cond.Wait()
	}
	size := sg.size
	delete(s.segs, id)
	delete(s.dirty, id)
	s.dropSegmentFree(id)
	s.st.Compactions++
	s.st.CompactedBytes += size
	s.mu.Unlock()

	sg.f.Close()
	if err := os.Remove(filepath.Join(s.dir, segName(id))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blob: remove compacted segment %d: %w", id, err)
	}
	return nil
}
