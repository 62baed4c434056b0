package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// testOpts keeps segments small so compaction and rolling are exercised
// without megabytes of test data.
var testOpts = Options{ChunkSize: 4 << 10, SegmentSize: 64 << 10, CompactRatio: -1}

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cas")
	s, err := Open(dir, testOpts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func reopen(t *testing.T, s *Store, dir string) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, testOpts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	return s2
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := openTemp(t)
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16), // spans multiple chunks
		{0},
	}
	var handles []Handle
	for _, p := range payloads {
		h, err := s.Put(p)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if h.Digest != Sum(p) || h.Length != uint32(len(p)) {
			t.Errorf("handle %v does not describe payload", h)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		got, err := s.Get(h)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Errorf("payload %d mismatch: %d vs %d bytes", i, len(got), len(payloads[i]))
		}
	}
	st := s.Stats()
	if st.Puts != 4 || st.Gets != 4 {
		t.Errorf("stats: puts=%d gets=%d", st.Puts, st.Gets)
	}
	if st.BytesIn != st.BytesOut {
		t.Errorf("stats: in=%d out=%d", st.BytesIn, st.BytesOut)
	}
	if st.Manifests != 4 {
		t.Errorf("manifests = %d, want 4", st.Manifests)
	}
}

func TestZeroAndBadHandles(t *testing.T) {
	s, _ := openTemp(t)
	if _, err := s.Get(Handle{}); !errors.Is(err, ErrNoBlob) {
		t.Errorf("Get(zero) = %v, want ErrNoBlob", err)
	}
	if err := s.Release(Handle{}); !errors.Is(err, ErrNoBlob) {
		t.Errorf("Release(zero) = %v, want ErrNoBlob", err)
	}
	// A handle with a length but no digest names nothing.
	if _, err := s.Get(Handle{Length: 4}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(digestless) = %v, want ErrNotFound", err)
	}
	unknown := Handle{Digest: Sum([]byte("never stored")), Length: 12}
	if _, err := s.Get(unknown); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if err := s.Release(unknown); !errors.Is(err, ErrNotFound) {
		t.Errorf("Release(unknown) = %v, want ErrNotFound", err)
	}
}

func TestDedupIdenticalPayloads(t *testing.T) {
	s, _ := openTemp(t)
	payload := bytes.Repeat([]byte("layer"), 10_000) // ~50 KB, many chunks
	h1, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := s.Stats().TotalBytes
	for i := 0; i < 9; i++ {
		h, err := s.Put(payload)
		if err != nil {
			t.Fatal(err)
		}
		if h != h1 {
			t.Fatalf("identical payload got different handle: %v vs %v", h, h1)
		}
	}
	st := s.Stats()
	if st.DedupHits != 9 {
		t.Errorf("dedup hits = %d, want 9", st.DedupHits)
	}
	if st.TotalBytes != sizeAfterFirst {
		t.Errorf("10 identical puts grew the store: %d -> %d bytes", sizeAfterFirst, st.TotalBytes)
	}
	if st.Manifests != 1 {
		t.Errorf("manifests = %d, want 1", st.Manifests)
	}
	// The object survives until the last reference is released.
	for i := 0; i < 9; i++ {
		if err := s.Release(h1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(h1); err != nil {
			t.Fatalf("Get after %d releases: %v", i+1, err)
		}
	}
	if err := s.Release(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after final release = %v, want ErrNotFound", err)
	}
}

// TestDedupHitPutAllocatesNothing pins what storing a payload the store
// already holds costs: one SHA-256 pass over the caller's bytes and a
// reference count under the lock — no chunking, no manifest, no copy.
func TestDedupHitPutAllocatesNothing(t *testing.T) {
	s, _ := openTemp(t)
	payload := bytes.Repeat([]byte("layer..."), 8<<10) // 64 KiB
	if _, err := s.Put(payload); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().DedupHits
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Put(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per dedup-hit Put of %d bytes, want 0", allocs, len(payload))
	}
	if hits := s.Stats().DedupHits - before; hits != 101 {
		t.Errorf("%d of 101 repeat puts were dedup hits", hits)
	}
}

func TestChunkLevelDedup(t *testing.T) {
	s, _ := openTemp(t)
	// Two distinct payloads sharing their first chunks: a re-encoded
	// layer stream where only the tail differs.
	shared := bytes.Repeat([]byte{0x5A}, 16<<10)
	a := append(append([]byte(nil), shared...), []byte("tail-a")...)
	b := append(append([]byte(nil), shared...), []byte("tail-b")...)
	if _, err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	grew := s.Stats().TotalBytes
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ChunkDedupHits == 0 {
		t.Error("no chunk-level dedup between payloads sharing chunks")
	}
	// b should have cost far less than a: only the tail chunk + manifest.
	if delta := st.TotalBytes - grew; delta > int64(len(b))/2 {
		t.Errorf("second payload cost %d bytes, want far less than %d", delta, len(b))
	}
}

func TestHoleReuseBoundsChurn(t *testing.T) {
	s, _ := openTemp(t)
	// Delete-heavy workload: put/release distinct payloads of one size
	// class. The footprint must stabilize via hole reuse, with no
	// compaction ever running (CompactRatio < 0 in testOpts).
	payload := make([]byte, 3000)
	var peak int64
	for i := 0; i < 200; i++ {
		rand.New(rand.NewSource(int64(i))).Read(payload)
		h, err := s.Put(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(h); err != nil {
			t.Fatal(err)
		}
		if tb := s.Stats().TotalBytes; tb > peak {
			peak = tb
		}
	}
	st := s.Stats()
	if st.HoleReuses == 0 {
		t.Fatal("no hole reuse under churn")
	}
	// 200 × ~3 KB cycled through; without reuse the store would be
	// ~600 KB+. With reuse it stays within a few blocks of one payload.
	if peak > 64<<10 {
		t.Errorf("churn footprint peaked at %d bytes; hole reuse is not bounding growth", peak)
	}
}

func TestBuddySplitReusesLargerHoles(t *testing.T) {
	s, _ := openTemp(t)
	big, _ := s.Put(bytes.Repeat([]byte{1}, 8<<10))
	if err := s.Release(big); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().TotalBytes
	// Small puts must carve the freed 8 KB block rather than append.
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte(2 + i)}, 900)
		if _, err := s.Put(data); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.TotalBytes != before {
		t.Errorf("small puts appended (%d -> %d bytes) instead of splitting the freed block", before, st.TotalBytes)
	}
	if st.HoleReuses == 0 {
		t.Error("expected hole reuses from buddy splitting")
	}
}

func TestScanRebuildAfterCrash(t *testing.T) {
	s, dir := openTemp(t)
	var handles []Handle
	var payloads [][]byte
	for i := 0; i < 12; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 5000)
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		payloads = append(payloads, data)
	}
	s.Release(handles[5])
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: the segments are on disk, nothing closed the store.
	s2, err := Open(writeSegFiles(t, readSegFiles(t, dir)), testOpts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	for i, h := range handles {
		if i == 5 {
			continue
		}
		got, err := s2.Get(h)
		if err != nil {
			t.Fatalf("Get(%d) after rebuild: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Errorf("payload %d corrupted by rebuild", i)
		}
	}
	// The released object must not resurrect with a live refcount the
	// owner did not grant: scan sets refs=1 only for manifests still on
	// disk; handles[5]'s blocks were freed and stamped.
	if _, err := s2.Get(handles[5]); !errors.Is(err, ErrNotFound) {
		t.Errorf("released object after rebuild = %v, want ErrNotFound", err)
	}
}

// TestScanKeepsHoleReuseAcrossCrash covers writes that change segment
// bytes in place without moving the file end: a free stamp and a put
// landed entirely in reused holes. After a crash the scan must keep the
// put and leave the released object gone.
func TestScanKeepsHoleReuseAcrossCrash(t *testing.T) {
	s, dir := openTemp(t)
	mk := func(seed int64) []byte {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	x, err := s.Put(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.Put(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(x); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Land a new payload of the same size class entirely in x's holes.
	sizeBefore := s.Stats().TotalBytes
	reuseBefore := s.Stats().HoleReuses
	z, err := s.Put(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HoleReuses == reuseBefore || st.TotalBytes != sizeBefore {
		t.Fatalf("put did not land in reused holes (reuses %d->%d, bytes %d->%d); test premise broken",
			reuseBefore, st.HoleReuses, sizeBefore, st.TotalBytes)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash here (payloads durable via Sync, no Close).
	s2, err := Open(writeSegFiles(t, readSegFiles(t, dir)), testOpts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	if got, err := s2.Get(z); err != nil || !bytes.Equal(got, mk(3)) {
		t.Errorf("put into reused holes lost after crash: %v", err)
	}
	if got, err := s2.Get(y); err != nil || !bytes.Equal(got, mk(2)) {
		t.Errorf("earlier put lost after crash: %v", err)
	}
	if _, err := s2.Get(x); !errors.Is(err, ErrNotFound) {
		t.Errorf("released object resurrected: %v", err)
	}
}

func TestScanTruncatesTornAppend(t *testing.T) {
	s, dir := openTemp(t)
	h1, _ := s.Put([]byte("first payload"))
	h2, _ := s.Put(bytes.Repeat([]byte{9}, 6000))
	s.Close()

	// Simulate a crash mid-chunk-append: a live header claiming more
	// data than the file holds.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	hdr := make([]byte, hdrSize)
	putHeader(hdr, kindChunk, 1<<20, 900_000, Sum([]byte("torn")), 0xDEAD)
	f.WriteAt(hdr, info.Size())
	f.WriteAt([]byte("partial data then power loss"), info.Size()+hdrSize)
	f.Close()

	s2, err := Open(dir, testOpts)
	if err != nil {
		t.Fatalf("reopen over torn append: %v", err)
	}
	defer s2.Close()
	for _, h := range []Handle{h1, h2} {
		if _, err := s2.Get(h); err != nil {
			t.Errorf("payload lost to torn-tail truncation: %v", err)
		}
	}
	// New puts land cleanly after the truncation point.
	h3, err := s2.Put([]byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get(h3); string(got) != "post-recovery" {
		t.Error("post-recovery put broken")
	}
}

func TestCorruptionDetectedOnGet(t *testing.T) {
	s, dir := openTemp(t)
	h, err := s.Put(bytes.Repeat([]byte("x"), 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first block (the first chunk).
	if _, err := f.WriteAt([]byte{'y'}, hdrSize+50); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Get(h); err == nil {
		t.Error("corrupted payload passed checksum")
	}
}

// TestGetChecksEveryChunkInPlace covers Get's read of each chunk straight
// into the result: a flipped byte in a middle chunk, a chunk list longer
// than the manifest's length and one shorter than it must each fail, and
// the untouched object must still read back whole.
func TestGetChecksEveryChunkInPlace(t *testing.T) {
	s, _ := openTemp(t)
	data := make([]byte, 3*testOpts.ChunkSize+100) // four chunks
	rand.New(rand.NewSource(7)).Read(data)
	h, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(h); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean Get: %d bytes, %v", len(got), err)
	}

	s.mu.Lock()
	me := s.manifests[h.Digest]
	length := me.length
	me.length = length - 1 // the last chunk now runs one byte past it
	s.mu.Unlock()
	if _, err := s.Get(h); err == nil || !strings.Contains(err.Error(), "run past") {
		t.Errorf("over-long chunk list: err = %v", err)
	}
	s.mu.Lock()
	me.length = length + 1
	s.mu.Unlock()
	if _, err := s.Get(h); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("short chunk list: err = %v", err)
	}

	s.mu.Lock()
	me.length = length
	ce := s.chunks[me.chunks[2]]
	f := s.segs[ce.seg].f
	s.mu.Unlock()
	if _, err := f.WriteAt([]byte{^data[2*testOpts.ChunkSize+9]}, ce.off+hdrSize+9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupted middle chunk: err = %v", err)
	}
}

func TestCompactReclaimsSparseSegments(t *testing.T) {
	s, _ := openTemp(t)
	var keep []Handle
	var keepData [][]byte
	for i := 0; i < 40; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 4000)
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			keep = append(keep, h)
			keepData = append(keepData, data)
		} else if err := s.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().TotalBytes
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if reclaimed <= 0 || st.TotalBytes >= before {
		t.Errorf("compaction reclaimed %d (size %d -> %d)", reclaimed, before, st.TotalBytes)
	}
	if st.Compactions == 0 {
		t.Error("no segments were compacted")
	}
	// Handles are stable across compaction — same digests, new blocks.
	for i, h := range keep {
		got, err := s.Get(h)
		if err != nil {
			t.Fatalf("Get after compact: %v", err)
		}
		if !bytes.Equal(got, keepData[i]) {
			t.Errorf("payload %d corrupted by compaction", i)
		}
	}
	if _, err := s.Put([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	opts := testOpts
	opts.CompactRatio = 0.6
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var handles []Handle
	for i := 0; i < 60; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 4000)
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Release most objects; the background compactor should eventually
	// retire sparse segments.
	for i, h := range handles {
		if i%5 != 0 {
			if err := s.Release(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := 200
	for ; deadline > 0; deadline-- {
		if s.Stats().Compactions > 0 {
			break
		}
		// Nudge and give the compactor goroutine a chance to run.
		s.mu.Lock()
		s.kickCompactor()
		s.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		if deadline%10 == 0 {
			for _, i := range []int{0, 5, 10} {
				if _, err := s.Get(handles[i]); err != nil {
					t.Fatalf("read during background compaction: %v", err)
				}
			}
		}
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("background compactor never ran")
	}
	for i, h := range handles {
		if i%5 != 0 {
			continue
		}
		got, err := s.Get(h)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 4000)) {
			t.Fatalf("survivor %d after background compaction: %v", i, err)
		}
	}
}

func TestCrashMidCompactionDuplicatesDedupedOnScan(t *testing.T) {
	s, dir := openTemp(t)
	data := bytes.Repeat([]byte{0x77}, 3000)
	h, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct-content filler (a repeated byte would chunk-dedup to one
	// block) forces a roll to a second segment.
	fill := make([]byte, 60<<10)
	rand.New(rand.NewSource(42)).Read(fill)
	if _, err := s.Put(fill); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash between compaction's copy and the source delete:
	// the same chunk block exists in two segments. The copy lands
	// block-aligned in the destination, as writeBlock would place it —
	// here at offset 0 of a fresh segment that was the compaction target.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, have %d", len(segs))
	}
	src, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	bl := int64(4096) // 3000+52 rounds to 4096
	if err := os.WriteFile(filepath.Join(dir, segName(99)), src[:bl], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testOpts)
	if err != nil {
		t.Fatalf("reopen over duplicate blocks: %v", err)
	}
	defer s2.Close()
	got, err := s2.Get(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("payload with duplicate blocks: %v", err)
	}
	// The duplicate was freed, not double-counted.
	if st := s2.Stats(); st.FreeBytes == 0 {
		t.Error("duplicate block was not freed on scan")
	}
}

// TestAbortedCompactionRestoresFreeList corrupts a live block so the
// compaction pass fails mid-copy, leaving the victim segment alive. The
// free blocks the pass had claimed (dropSegmentFree) must return to the
// free lists — otherwise the space is unallocatable and FreeBytes
// undercounts until a full rebuild scan.
func TestAbortedCompactionRestoresFreeList(t *testing.T) {
	s, _ := openTemp(t)
	mk := func(seed int64) []byte {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	var handles []Handle
	for i := 0; i < 12; i++ {
		h, err := s.Put(mk(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Roll to a fresh, fully-live segment so seg 0 is the only victim.
	fill := make([]byte, 60<<10)
	rand.New(rand.NewSource(99)).Read(fill)
	if _, err := s.Put(fill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i += 2 {
		if err := s.Release(handles[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt a surviving chunk in segment 0 so its copy fails the CRC.
	s.mu.Lock()
	victim := -1
	for id := range s.segs {
		if victim == -1 || id < victim {
			victim = id
		}
	}
	var corrupt loc
	for _, ce := range s.chunks {
		if ce.seg == victim {
			corrupt = ce.loc
			break
		}
	}
	sg := s.segs[victim]
	s.mu.Unlock()
	if corrupt.blockLen == 0 {
		t.Fatal("no live chunk left in the victim segment")
	}
	if _, err := sg.f.WriteAt([]byte{0xFF, 0xEE, 0xDD}, corrupt.off+hdrSize+10); err != nil {
		t.Fatal(err)
	}

	freeBefore := s.Stats().FreeBytes
	if freeBefore == 0 {
		t.Fatal("releases produced no free bytes; test premise broken")
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("compaction over a corrupt block reported success")
	}
	if free := s.Stats().FreeBytes; free != freeBefore {
		t.Errorf("aborted compaction leaked free space: %d -> %d bytes", freeBefore, free)
	}
	// The restored holes must be allocatable again.
	reuses := s.Stats().HoleReuses
	if _, err := s.Put(mk(1000)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().HoleReuses == reuses {
		t.Error("restored free blocks were not reused by a new put")
	}
}

// TestRetain: Retain takes one reference to an object the store holds
// and refuses, taking nothing, a handle it does not hold.
func TestRetain(t *testing.T) {
	s, _ := openTemp(t)
	h, err := s.Put([]byte("retained payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retain(h); err != nil {
		t.Fatal(err)
	}
	if refs := s.Objects()[h.Digest]; refs != 2 {
		t.Errorf("refs after Put and Retain = %d, want 2", refs)
	}
	if err := s.Retain(Handle{}); !errors.Is(err, ErrNoBlob) {
		t.Errorf("Retain(zero) = %v, want ErrNoBlob", err)
	}
	for _, bad := range []Handle{
		{Digest: Sum([]byte("never stored")), Length: 12},
		{Digest: h.Digest, Length: h.Length + 1},
	} {
		if err := s.Retain(bad); !errors.Is(err, ErrNotFound) {
			t.Errorf("Retain(%s) = %v, want ErrNotFound", bad, err)
		}
	}
	if refs := s.Objects()[h.Digest]; refs != 2 {
		t.Errorf("refs after the refusals = %d, want 2", refs)
	}
	s.Release(h)
	s.Release(h)
	if _, err := s.Get(h); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after two releases = %v, want ErrNotFound", err)
	}
}

func TestResetRefs(t *testing.T) {
	s, _ := openTemp(t)
	a, _ := s.Put([]byte("payload a"))
	b, _ := s.Put(bytes.Repeat([]byte("b"), 9000))
	c, _ := s.Put([]byte("payload c"))
	ghost := Sum([]byte("never stored"))

	missing := s.ResetRefs(map[Digest]int64{
		a.Digest: 3,
		b.Digest: 1,
		// c absent: must be freed as an orphan.
		ghost: 2,
	})
	if len(missing) != 1 || missing[0] != ghost {
		t.Errorf("missing = %v, want [ghost]", missing)
	}
	if _, err := s.Get(c); !errors.Is(err, ErrNotFound) {
		t.Errorf("orphan survived ResetRefs: %v", err)
	}
	// a now needs exactly 3 releases to die.
	s.Release(a)
	s.Release(a)
	if _, err := s.Get(a); err != nil {
		t.Fatalf("a died early: %v", err)
	}
	s.Release(a)
	if _, err := s.Get(a); !errors.Is(err, ErrNotFound) {
		t.Error("a survived its final release")
	}
	if _, err := s.Get(b); err != nil {
		t.Errorf("b: %v", err)
	}
}

func TestQuickPutGet(t *testing.T) {
	s, _ := openTemp(t)
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%9000)
		rng.Read(data)
		h, err := s.Put(data)
		if err != nil {
			return false
		}
		got, err := s.Get(h)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPutGetRelease(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	opts := testOpts
	opts.CompactRatio = 0.5 // background compactor on, racing the workers
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	const per = 50
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				data := bytes.Repeat([]byte{byte(w)}, 1024+i*13)
				h, err := s.Put(data)
				if err != nil {
					errc <- err
					return
				}
				got, err := s.Get(h)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, data) {
					errc <- os.ErrInvalid
					return
				}
				if i%3 == 0 {
					if err := s.Release(h); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Puts != workers*per {
		t.Errorf("puts = %d, want %d", st.Puts, workers*per)
	}
}

// TestGetRacingReleaseFailsClean drives Get against a concurrent Release
// of the same object. The read may find the object gone — but it must
// report that as a clean ErrNotFound (the locations are re-resolved on
// retry), never as a corruption-shaped "no live block" or digest
// mismatch from hitting the freed block.
func TestGetRacingReleaseFailsClean(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 300; i++ {
		data := make([]byte, 2000+i)
		rand.New(rand.NewSource(int64(i))).Read(data)
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Release(h) }()
		got, err := s.Get(h)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("raced Get %d returned a non-clean error: %v", i, err)
		}
		if err == nil && !bytes.Equal(got, data) {
			t.Fatalf("raced Get %d returned wrong bytes", i)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestOversizeRejected(t *testing.T) {
	if MaxBlobSize != 4<<30 {
		t.Errorf("MaxBlobSize = %d, want 4GB", int64(MaxBlobSize))
	}
}

func TestHandlePredicates(t *testing.T) {
	if !(Handle{}).IsZero() {
		t.Error("zero handle not IsZero")
	}
	if (Handle{Length: 7}).IsZero() {
		t.Error("handle with a length claims IsZero")
	}
	if (Handle{Digest: Sum([]byte("x")), Length: 1}).IsZero() {
		t.Error("digest handle claims IsZero")
	}
}
