package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mmconf/internal/blob"
)

// blobSchema is a single-blob-column relation used across the CAS tests.
var blobSchema = []Column{{Name: "d", Type: TBlob}}

// The footprint tests hold the store to what its design promises about
// disk space, to half a percent: dedup stores each unique payload once,
// freed blocks are reused so delete-heavy churn plateaus at one working
// set, and compaction drains sparse segments down to the survivors.
// 1 MiB segments make a few MiB of data roll and compact; compaction
// runs only where a test calls it.
var footprintOpts = Options{Sync: SyncNever, Blob: blob.Options{SegmentSize: 1 << 20, CompactRatio: -1}}

// putNoise stores size bytes of seeded noise: equal seeds are identical
// payloads, different seeds share no chunk (a repeated byte would
// chunk-dedup to nothing).
func putNoise(t *testing.T, db *DB, seed, size int) blob.Handle {
	t.Helper()
	p := make([]byte, size)
	rand.New(rand.NewSource(int64(seed))).Read(p)
	h, err := db.PutBlob(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func assertFootprint(t *testing.T, what string, got, want int64) {
	t.Helper()
	if diff := got - want; diff < -want/200 || diff > want/200 {
		t.Errorf("%s = %d bytes, want %d within 0.5%%", what, got, want)
	}
}

// TestCompactBlobsDedup stores N references to one payload plus M
// distinct payloads and checks the on-disk footprint tracks UNIQUE
// bytes, not total bytes — the tentpole property of the
// content-addressed store.
func TestCompactBlobsDedup(t *testing.T) {
	db, _ := openTestDB(t, footprintOpts)
	tbl, _ := db.CreateTable("t", blobSchema)
	const n, m, size = 50, 20, 256 << 10
	for i := 0; i < n+m; i++ {
		seed := max(0, i-n+1) // n copies of payload 0, then payloads 1..m
		if _, err := tbl.Insert(Row{putNoise(t, db, seed, size)}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := db.BlobStats()
	if st.DedupHits != n-1 {
		t.Errorf("dedup hits = %d, want %d", st.DedupHits, n-1)
	}
	if st.Manifests != m+1 {
		t.Errorf("stored objects = %d, want %d", st.Manifests, m+1)
	}
	assertFootprint(t, "on-disk after 50 identical + 20 distinct payloads", st.TotalBytes, (m+1)*size)
}

// TestHoleReuseBoundsChurnFootprint: every release feeds the free lists
// and every put is served from a hole, so 25 MB of put+release churn
// never grows the store past one payload.
func TestHoleReuseBoundsChurnFootprint(t *testing.T) {
	db, _ := openTestDB(t, footprintOpts)
	const cycles, size = 400, 64 << 10
	var peak int64
	for i := 0; i < cycles; i++ {
		if err := db.ReleaseBlob(putNoise(t, db, i, size)); err != nil {
			t.Fatal(err)
		}
		if st, _ := db.BlobStats(); st.TotalBytes > peak {
			peak = st.TotalBytes
		}
	}
	assertFootprint(t, "peak on-disk over 400 put+release cycles", peak, size)
}

// TestCompactBlobsFootprint deletes 36 of 40 objects and compacts: what
// is left on disk is the four survivors, in fewer segments. Rows hold the
// handles because CompactBlobs recounts references from the tables — a
// handle no row holds would be reclaimed as well.
func TestCompactBlobsFootprint(t *testing.T) {
	db, _ := openTestDB(t, footprintOpts)
	tbl, _ := db.CreateTable("t", blobSchema)
	const objects, keepEvery, size = 40, 10, 128 << 10
	var handles [objects]blob.Handle
	var ids [objects]uint64
	for i := range handles {
		handles[i] = putNoise(t, db, i, size)
		var err error
		if ids[i], err = tbl.Insert(Row{handles[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Fill first, delete after: a hole opened earlier would be reused by
	// the next put and leave nothing sparse to compact.
	for i, h := range handles {
		if i%keepEvery == 0 {
			continue
		}
		if err := tbl.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := db.ReleaseBlob(h); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := db.BlobStats()
	if _, err := db.CompactBlobs(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.BlobStats()
	assertFootprint(t, "on-disk after compaction", after.TotalBytes, objects/keepEvery*size)
	if after.Segments >= before.Segments {
		t.Errorf("segments %d -> %d, want fewer", before.Segments, after.Segments)
	}
}

// TestReleaseBlobDeferredUntilWALSync checks the crash-safety contract
// between row deletes and space reclamation: under group commit a
// release queues until the WAL record justifying it is fsynced, so the
// payload stays readable (and its space unreused) in the window where a
// crash would resurrect the row.
func TestReleaseBlobDeferredUntilWALSync(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncGroup, GroupSize: 1024})
	tbl, _ := db.CreateTable("t", blobSchema)
	payload := bytes.Repeat([]byte{0x42}, 10_000)
	h, err := db.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{h})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	// The delete record is appended but not fsynced: the release must
	// queue, leaving the object alive.
	if err := db.ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetBlob(h); err != nil {
		t.Errorf("payload freed before its delete was durable: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The fsync drained the queue: now the object is gone.
	if _, err := db.GetBlob(h); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("payload after durable delete = %v, want ErrNotFound", err)
	}

	// Under SyncAlways the WAL is clean after every append, so the same
	// sequence releases immediately.
	db2, _ := openTestDB(t, Options{Sync: SyncAlways})
	tbl2, _ := db2.CreateTable("t", blobSchema)
	h2, _ := db2.PutBlob(payload)
	id2, _ := tbl2.Insert(Row{h2})
	if err := tbl2.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if err := db2.ReleaseBlob(h2); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.GetBlob(h2); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("SyncAlways release not immediate: %v", err)
	}
}

// TestGetBlobZeroHandle checks the typed-error contract for rows whose
// blob cell was never populated.
func TestGetBlobZeroHandle(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	if _, err := db.GetBlob(blob.Handle{}); !errors.Is(err, blob.ErrNoBlob) {
		t.Errorf("GetBlob(zero) = %v, want ErrNoBlob", err)
	}
	if err := db.ReleaseBlob(blob.Handle{}); !errors.Is(err, blob.ErrNoBlob) {
		t.Errorf("ReleaseBlob(zero) = %v, want ErrNoBlob", err)
	}
}

// casPath returns the blob store directory of a database dir.
func casPath(dir string) string { return filepath.Join(dir, casDir) }

// TestCrashMidChunkAppend simulates dying in the middle of a chunk
// append: a live block header is on disk but its payload is cut short.
// Open must truncate the torn tail and serve every durable object
// checksum-clean.
func TestCrashMidChunkAppend(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", blobSchema)
	payload := bytes.Repeat([]byte{0x5C}, 30_000)
	h, _ := db.PutBlob(payload)
	if _, err := tbl.Insert(Row{h}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.wal.close()
	db.blobs.Close()

	// Crash artifacts: no index snapshot, and a torn append at the tail
	// of the last segment (header promising 1 MiB, payload cut off).
	os.Remove(filepath.Join(casPath(dir), "cas.index"))
	segs, _ := filepath.Glob(filepath.Join(casPath(dir), "seg-*.blk"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [64]byte
	binary.LittleEndian.PutUint32(torn[0:4], 0xCA5C0DE5) // live magic
	binary.LittleEndian.PutUint32(torn[4:8], 1)          // chunk
	binary.LittleEndian.PutUint32(torn[8:12], 1<<20)     // blockLen far past EOF
	binary.LittleEndian.PutUint32(torn[12:16], 900_000)
	f.Write(torn[:])
	f.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over torn chunk append: %v", err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	row, ok, _ := tbl2.Get(1)
	if !ok {
		t.Fatal("row lost")
	}
	data, err := db2.GetBlob(row[0].(blob.Handle))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("payload after torn-append recovery: %v", err)
	}
	// And the store keeps working.
	if h, err := db2.PutBlob([]byte("after recovery")); err != nil {
		t.Fatal(err)
	} else if got, err := db2.GetBlob(h); err != nil || string(got) != "after recovery" {
		t.Fatalf("post-recovery put: %v", err)
	}
}

// TestCrashMidIndexFlush simulates dying while the blob index snapshot
// is being written: the snapshot on disk is garbage. Open must reject it
// by checksum and fall back to the segment scan.
func TestCrashMidIndexFlush(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", blobSchema)
	payload := bytes.Repeat([]byte{0x1F}, 12_345)
	h, _ := db.PutBlob(payload)
	tbl.Insert(Row{h})
	db.wal.close()
	db.blobs.Close() // wrote a valid index snapshot...

	// ...which the simulated crash tore mid-write.
	idx := filepath.Join(casPath(dir), "cas.index")
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over torn index: %v", err)
	}
	defer db2.Close()
	st, _ := db2.BlobStats()
	if !st.RebuiltFromScan {
		t.Error("torn index snapshot was trusted")
	}
	tbl2, _ := db2.Table("t")
	row, _, _ := tbl2.Get(1)
	if data, err := db2.GetBlob(row[0].(blob.Handle)); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("payload after index rebuild: %v", err)
	}
}

// TestCrashMidCompaction simulates dying between a compaction's copy and
// its delete of the source segment: the same block exists twice. Open's
// scan must keep one copy, free the other, and read the object clean.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", blobSchema)
	payload := bytes.Repeat([]byte{0x3A}, 9_000)
	h, _ := db.PutBlob(payload)
	tbl.Insert(Row{h})
	db.wal.close()
	db.blobs.Close()
	os.Remove(filepath.Join(casPath(dir), "cas.index"))

	// Duplicate the first block of segment 0 into a fresh "compaction
	// target" segment, block-aligned at offset 0.
	segs, _ := filepath.Glob(filepath.Join(casPath(dir), "seg-*.blk"))
	src, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blockLen := binary.LittleEndian.Uint32(src[8:12])
	if int(blockLen) > len(src) {
		t.Fatalf("first block %d bytes, segment only %d", blockLen, len(src))
	}
	dup := filepath.Join(casPath(dir), "seg-000777.blk")
	if err := os.WriteFile(dup, src[:blockLen], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over mid-compaction artifact: %v", err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	row, _, _ := tbl2.Get(1)
	if data, err := db2.GetBlob(row[0].(blob.Handle)); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("payload with duplicate blocks on disk: %v", err)
	}
	st, _ := db2.BlobStats()
	if st.FreeBytes == 0 {
		t.Error("the duplicate block was not freed")
	}
}

// TestFsckBlobs drives the consistency checker through a clean store, a
// fabricated dangling reference, and an orphan object.
func TestFsckBlobs(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", blobSchema)
	for i := 0; i < 5; i++ {
		h, err := db.PutBlob(bytes.Repeat([]byte{byte(i)}, 3_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(Row{h}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.FsckBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean store flagged: %+v", rep)
	}
	if rep.Objects != 5 || rep.Referenced != 5 || rep.BytesChecked != 5*3_000 {
		t.Errorf("fsck counts: %+v", rep)
	}

	// A row pointing at a digest the store never held.
	ghost := blob.Handle{Digest: blob.Sum([]byte("ghost")), Length: 5}
	if _, err := tbl.Insert(Row{ghost}); err != nil {
		t.Fatal(err)
	}
	// An object no row references.
	if _, err := db.PutBlob([]byte("orphan payload")); err != nil {
		t.Fatal(err)
	}
	rep, err = db.FsckBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Error("fsck missed the dangling reference and the orphan")
	}
	if len(rep.Missing) != 1 {
		t.Errorf("missing = %d, want 1", len(rep.Missing))
	}
	if rep.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", rep.Orphans)
	}
}
