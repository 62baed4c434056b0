// Package blob implements the content-addressed large-object store
// underlying the database server. The paper stores every multimedia
// payload (images, audio, compressed streams) as an opaque Oracle BLOB;
// the first generation of this package reproduced exactly that — an
// append-only heap addressed by byte offset, with no dedup, no hole
// reuse, and stop-the-world compaction. This generation rebuilds the
// layer as content-addressed storage so "millions of multimedia objects"
// fit on disk:
//
//   - Payloads are split into fixed-size chunks keyed by SHA-256 digest.
//     A manifest (itself a digest-keyed record) maps the object to its
//     chunk list, so identical payloads — repeated compression layers,
//     re-uploaded images, phantom copies — are stored exactly once.
//   - Every chunk and manifest carries a reference count. Deletes
//     decrement; at zero the record's block goes into a size-bucketed
//     free list and is reused by later writes instead of waiting for a
//     full rewrite.
//   - Data lives in bounded segment files. Background compaction
//     migrates live blocks off sparse segments and deletes them, without
//     blocking readers.
//   - The segments are the index: every record is self-describing
//     (magic, kind, lengths, digest, CRC), and Open rebuilds the
//     in-memory index by scanning them, after a clean close and after a
//     crash alike.
//
// A Handle is the payload's SHA-256 digest plus its length. Handles are
// stable across compaction — compaction moves bytes, never identities —
// and they are exactly what cross-node replication needs to ship: a
// digest list, followed by only the chunks the remote side is missing.
//
// Block layout on disk (all integers little-endian):
//
//	magic    uint32  (0xCA5C0DE5 live, 0xF7EEB10C free)
//	kind     uint32  (1 chunk, 2 manifest)
//	blockLen uint32  (allocated size, power of two, includes header)
//	dataLen  uint32  (payload bytes)
//	digest   [32]byte
//	crc      uint32  (IEEE CRC-32 of the payload)
//	payload  ...
//
// Reads verify the CRC of every chunk and the SHA-256 of the assembled
// payload, so a torn block or a stale handle fails loudly instead of
// returning corrupt media.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
)

const (
	liveMagic = 0xCA5C0DE5
	freeMagic = 0xF7EEB10C

	kindChunk    = 1
	kindManifest = 2

	hdrSize  = 52
	minBlock = 64

	// MaxBlobSize mirrors the Oracle 4 GB BLOB limit the paper cites.
	MaxBlobSize = 4 << 30
)

// Digest is a SHA-256 content digest.
type Digest [32]byte

// Sum returns the content digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// String renders the digest as hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Handle identifies a stored payload by content: its SHA-256 digest and
// length. The zero Handle means "no blob" and Get returns ErrNoBlob for
// it.
type Handle struct {
	Digest Digest
	Length uint32
}

// IsZero reports whether h is the zero handle (no blob stored).
func (h Handle) IsZero() bool { return h == Handle{} }

// String renders the handle as a short digest prefix plus length.
func (h Handle) String() string {
	if h.IsZero() {
		return "blob:zero"
	}
	return fmt.Sprintf("blob:%x+%d", h.Digest[:8], h.Length)
}

// Typed errors for the handle edge cases callers must distinguish.
var (
	// ErrNoBlob is returned by Get/Release on the zero Handle — a row
	// whose blob column was never populated.
	ErrNoBlob = errors.New("blob: zero handle (no blob stored)")
	// ErrNotFound is returned when a well-formed handle has no object
	// behind it (already released, or from a foreign store).
	ErrNotFound = errors.New("blob: object not found")
)

// Options tune the store geometry. The zero value selects the defaults.
type Options struct {
	// ChunkSize is the split size for payloads. The default is 64 KiB
	// minus the block header, so a full chunk's block (header + data)
	// fills its power-of-two size class exactly instead of rounding up
	// to double.
	ChunkSize int
	// SegmentSize caps each data file (default 16 MiB). Appends roll to
	// a new segment past this; a single oversized block may exceed it.
	SegmentSize int64
	// CompactRatio is the live-bytes/size threshold below which a
	// non-active segment is compacted in the background (default 0.5).
	// Negative disables background compaction; explicit Compact calls
	// still work.
	CompactRatio float64
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 64<<10 - hdrSize
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = 16 << 20
	}
	if o.CompactRatio == 0 {
		o.CompactRatio = 0.5
	}
	return o
}

// loc addresses one block on disk.
type loc struct {
	seg      int
	off      int64
	blockLen int64
}

// chunkEntry is the index record of one stored chunk.
type chunkEntry struct {
	loc
	dataLen uint32
	refs    int64
}

// manifestEntry is the index record of one stored object: the location
// of its manifest block plus the decoded chunk list.
type manifestEntry struct {
	loc
	dataLen uint32 // manifest record bytes
	refs    int64
	length  uint32 // payload bytes
	chunks  []Digest
}

// Stats is a point-in-time snapshot of the store's counters and gauges.
type Stats struct {
	Puts, Gets, Releases int64
	BytesIn, BytesOut    int64
	// DedupHits counts Puts fully absorbed by an existing manifest;
	// DedupBytes is the payload bytes those hits did not re-store.
	// ChunkDedupHits counts chunk-level hits inside novel payloads.
	DedupHits, DedupBytes, ChunkDedupHits int64
	// HoleReuses counts block allocations served from the free lists.
	HoleReuses int64
	Chunks     int64 // live chunk records
	Manifests  int64 // live objects
	LiveBytes  int64 // bytes in live blocks (incl. headers, padding)
	FreeBytes  int64 // bytes parked in the free lists
	TotalBytes int64 // sum of segment file sizes
	Segments   int64
	// Compactions counts segments retired; CompactedBytes is the file
	// bytes those segments returned to the filesystem.
	Compactions, CompactedBytes int64
}

// Store is a content-addressed blob store over a directory of segment
// files. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond // signaled when a segment's reader count drops

	dir  string
	opts Options

	segs      map[int]*segment
	active    *segment
	nextSegID int
	dirty     map[int]*segment // segments with unsynced writes

	chunks    map[Digest]*chunkEntry
	manifests map[Digest]*manifestEntry
	free      map[int64][]loc // blockLen -> free blocks
	freeBytes int64

	closed bool

	// background compactor
	compactMu   sync.Mutex // serializes compaction passes
	compactKick chan struct{}
	stopc       chan struct{}
	wg          sync.WaitGroup

	st Stats
}

// segment is one bounded data file.
type segment struct {
	id         int
	f          *os.File
	size       int64 // logical append point
	live       int64 // bytes in live blocks
	refs       int   // in-flight readers
	compacting bool  // excluded from allocation while being drained
}

// Open opens (or creates) a content-addressed store in dir and builds
// its index by scanning the segments (rebuildFromScan): a block torn or
// damaged by a crash is left out, and every block that verifies is kept.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: mkdir %s: %w", dir, err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		segs:        make(map[int]*segment),
		dirty:       make(map[int]*segment),
		chunks:      make(map[Digest]*chunkEntry),
		manifests:   make(map[Digest]*manifestEntry),
		free:        make(map[int64][]loc),
		compactKick: make(chan struct{}, 1),
		stopc:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if err := s.openSegments(ids); err != nil {
		s.closeFiles()
		return nil, err
	}
	if err := s.rebuildFromScan(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if len(s.segs) == 0 {
		if _, err := s.addSegment(); err != nil {
			return nil, err
		}
	}
	s.active = s.segs[s.maxSegID()]
	if opts.CompactRatio > 0 {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

func (s *Store) maxSegID() int {
	max := -1
	for id := range s.segs {
		if id > max {
			max = id
		}
	}
	return max
}

// Put stores data (deduplicated) and returns its content handle, which
// carries one reference of its own: the caller's, until it releases it.
// A payload already present only bumps its reference count. The data is
// written but not fsynced; call Sync for durability, or rely on the
// store layer's checkpoint/WAL discipline.
func (s *Store) Put(data []byte) (Handle, error) {
	if int64(len(data)) > MaxBlobSize {
		return Handle{}, fmt.Errorf("blob: %d bytes exceeds the %d-byte BLOB limit", len(data), int64(MaxBlobSize))
	}
	d := Sum(data)
	h := Handle{Digest: d, Length: uint32(len(data))}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Handle{}, fmt.Errorf("blob: store closed")
	}
	s.st.Puts++
	s.st.BytesIn += int64(len(data))
	if me := s.manifests[d]; me != nil {
		me.refs++
		s.st.DedupHits++
		s.st.DedupBytes += int64(len(data))
		return h, nil
	}

	// Novel payload: split it into chunks, then commit.
	n := (len(data) + s.opts.ChunkSize - 1) / s.opts.ChunkSize
	chunks := make([]Digest, 0, n)
	parts := make([][]byte, 0, n)
	for off := 0; off < len(data); off += s.opts.ChunkSize {
		part := data[off:min(off+s.opts.ChunkSize, len(data))]
		chunks = append(chunks, Sum(part))
		parts = append(parts, part)
	}
	if err := s.commitLocked(d, h.Length, chunks, parts); err != nil {
		return Handle{}, err
	}
	return h, nil
}

// commitLocked stores the novel object d of length bytes, whose payload
// is parts in order, each under its digest in chunks: a chunk the store
// holds is shared, a new one written, then the manifest goes down under
// d with one reference. A failed write drops every chunk reference the
// commit took. The manifest entry keeps chunks. Caller holds s.mu and
// found no manifest under d.
func (s *Store) commitLocked(d Digest, length uint32, chunks []Digest, parts [][]byte) error {
	unwind := func(taken []Digest) {
		for _, cd := range taken {
			if ce := s.chunks[cd]; ce != nil {
				if ce.refs--; ce.refs <= 0 {
					s.freeBlockLocked(ce.loc)
					delete(s.chunks, cd)
				}
			}
		}
	}
	for i, cd := range chunks {
		if ce := s.chunks[cd]; ce != nil {
			ce.refs++
			s.st.ChunkDedupHits++
			continue
		}
		l, err := s.writeBlock(kindChunk, cd, parts[i], -1)
		if err != nil {
			unwind(chunks[:i])
			return err
		}
		s.chunks[cd] = &chunkEntry{loc: l, dataLen: uint32(len(parts[i])), refs: 1}
	}
	mb := encodeManifest(length, chunks)
	l, err := s.writeBlock(kindManifest, d, mb, -1)
	if err != nil {
		unwind(chunks)
		return err
	}
	s.manifests[d] = &manifestEntry{
		loc: l, dataLen: uint32(len(mb)), refs: 1,
		length: length, chunks: chunks,
	}
	return nil
}

// Get reads the payload behind h, verifying every chunk CRC and the
// whole-payload digest. The zero handle returns ErrNoBlob.
func (s *Store) Get(h Handle) ([]byte, error) {
	if h.IsZero() {
		return nil, ErrNoBlob
	}
	return s.read(h, true)
}

// read is Get (object set: h names a stored object) and GetChunk (h's
// digest names one chunk).
//
// Segment pins only protect against segment deletion, not block reuse:
// a read that resolved its chunk locations and dropped the lock can race
// a concurrent Release of the same object (a GET racing a DELETE) and
// hit a freed or reused block. One retry re-resolves the locations, so
// that race reports a clean ErrNotFound; a failure that persists across
// both attempts is genuine corruption and stays loud.
func (s *Store) read(h Handle, object bool) ([]byte, error) {
	data, err := s.tryRead(h, object)
	if err != nil && !errors.Is(err, ErrNotFound) {
		data, err = s.tryRead(h, object)
	}
	return data, err
}

// readTarget names what read reads in its errors.
func readTarget(h Handle, object bool) string {
	if object {
		return h.String()
	}
	return fmt.Sprintf("chunk %x", h.Digest[:8])
}

// tryRead is one resolve-pin-read-verify attempt of read.
func (s *Store) tryRead(h Handle, object bool) ([]byte, error) {
	s.mu.Lock()
	var chunks []Digest
	var length uint32
	found := false
	one := [1]Digest{h.Digest}
	if object {
		if me := s.manifests[h.Digest]; me != nil {
			chunks, length, found = me.chunks, me.length, true
		}
	} else if ce := s.chunks[h.Digest]; ce != nil {
		chunks, length, found = one[:], ce.dataLen, true
	}
	if !found {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, readTarget(h, object))
	}
	// Resolve every chunk location and pin the segments involved, so
	// compaction cannot delete the files while the reads are in flight.
	type block struct {
		f       *os.File
		off     int64
		dataLen uint32
	}
	blocks := make([]block, len(chunks))
	pinned := make(map[int]*segment)
	unpin := func() {
		for _, sg := range pinned {
			sg.refs--
		}
		s.cond.Broadcast()
	}
	for i, cd := range chunks {
		ce := s.chunks[cd]
		if ce == nil {
			unpin()
			s.mu.Unlock()
			return nil, fmt.Errorf("blob: %s: missing chunk %x", readTarget(h, object), cd[:8])
		}
		sg := s.segs[ce.seg]
		if sg == nil {
			unpin()
			s.mu.Unlock()
			return nil, fmt.Errorf("blob: %s: chunk %x in missing segment %d", readTarget(h, object), cd[:8], ce.seg)
		}
		if pinned[ce.seg] == nil {
			sg.refs++
			pinned[ce.seg] = sg
		}
		blocks[i] = block{f: sg.f, off: ce.off, dataLen: ce.dataLen}
	}
	s.mu.Unlock()

	// Each chunk is read straight into its place in the result; a chunk
	// list that would run past the manifest's length stops the read.
	buf := make([]byte, length)
	filled := 0
	var readErr error
	for _, b := range blocks {
		end := filled + int(b.dataLen)
		if end < filled || end > len(buf) {
			readErr = fmt.Errorf("chunks run past the manifest's %d bytes", length)
			break
		}
		if readErr = readBlockInto(b.f, b.off, buf[filled:end]); readErr != nil {
			break
		}
		filled = end
	}
	buf = buf[:filled]

	s.mu.Lock()
	unpin()
	if readErr == nil {
		if object {
			s.st.Gets++
		}
		s.st.BytesOut += int64(len(buf))
	}
	s.mu.Unlock()

	if readErr != nil {
		return nil, fmt.Errorf("blob: %s: %w", readTarget(h, object), readErr)
	}
	if uint32(len(buf)) != length || Sum(buf) != h.Digest {
		return nil, fmt.Errorf("blob: %s: payload digest mismatch (%d bytes)", readTarget(h, object), len(buf))
	}
	return buf, nil
}

// Retain takes one more reference to the stored object h — for the store
// layer, the reference a row cell holds. The zero handle returns
// ErrNoBlob; a handle whose object the store does not hold, or holds at
// another length, returns ErrNotFound and takes nothing.
func (s *Store) Retain(h Handle) error {
	if h.IsZero() {
		return ErrNoBlob
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.manifests[h.Digest]
	if me == nil || me.length != h.Length {
		return fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	me.refs++
	return nil
}

// Release decrements the object's reference count. At zero the manifest
// and any chunks no other object shares go to the free lists, and their
// blocks become reusable by later writes. Releasing the zero handle
// returns ErrNoBlob; an unknown handle returns ErrNotFound.
func (s *Store) Release(h Handle) error {
	if h.IsZero() {
		return ErrNoBlob
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.manifests[h.Digest]
	if me == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	s.st.Releases++
	if me.refs--; me.refs > 0 {
		return nil
	}
	s.dropManifestLocked(h.Digest, me)
	s.kickCompactor()
	return nil
}

// dropManifestLocked frees a zero-ref manifest and cascades to chunks.
func (s *Store) dropManifestLocked(d Digest, me *manifestEntry) {
	s.freeBlockLocked(me.loc)
	delete(s.manifests, d)
	for _, cd := range me.chunks {
		ce := s.chunks[cd]
		if ce == nil {
			continue
		}
		if ce.refs--; ce.refs <= 0 {
			s.freeBlockLocked(ce.loc)
			delete(s.chunks, cd)
		}
	}
}

// ResetRefs replaces every object's reference count with the caller's
// authoritative counts: the store layer's crash recovery, which at Open
// recomputes them from the surviving table rows, so refcounts heal after
// any crash. Objects absent from counts are freed; chunk counts
// are recomputed from the surviving manifests. Digests present in
// counts but missing from the store are returned.
func (s *Store) ResetRefs(counts map[Digest]int64) (missing []Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d, me := range s.manifests {
		want := counts[d]
		if want <= 0 {
			s.freeBlockLocked(me.loc)
			delete(s.manifests, d)
			continue
		}
		me.refs = want
	}
	for d := range counts {
		if counts[d] > 0 && s.manifests[d] == nil {
			missing = append(missing, d)
		}
	}
	// Exact chunk counts: one reference per occurrence in a live manifest.
	for _, ce := range s.chunks {
		ce.refs = 0
	}
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
	s.kickCompactor()
	return missing
}

// Objects returns a snapshot of every stored object digest and its
// reference count (for fsck and replication planning).
func (s *Store) Objects() map[Digest]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Digest]int64, len(s.manifests))
	for d, me := range s.manifests {
		out[d] = me.refs
	}
	return out
}

// Stats returns a snapshot of counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := s.st
	st.Chunks = int64(len(s.chunks))
	st.Manifests = int64(len(s.manifests))
	st.FreeBytes = s.freeBytes
	st.Segments = int64(len(s.segs))
	for _, sg := range s.segs {
		st.LiveBytes += sg.live
		st.TotalBytes += sg.size
	}
	return st
}

// Sync fsyncs every segment written since the last sync.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	for id, sg := range s.dirty {
		if err := sg.f.Sync(); err != nil {
			return fmt.Errorf("blob: sync segment %d: %w", id, err)
		}
		delete(s.dirty, id)
	}
	return nil
}

// Close stops background compaction, syncs, and closes the files.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopc)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if err := s.syncLocked(); err != nil {
		first = err
	}
	for _, sg := range s.segs {
		if err := sg.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("blob: close segment %d: %w", sg.id, err)
		}
	}
	return first
}

// closeFiles closes segment files during a failed Open.
func (s *Store) closeFiles() {
	for _, sg := range s.segs {
		sg.f.Close()
	}
}
