package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mmconf/internal/wire"
)

// appendRawRecord writes one CRC-framed walRecord straight to the log
// file, bypassing every validation layer — simulating a WAL produced by
// the pre-validation code, where a record that cannot apply could be
// made durable.
func appendRawRecord(t *testing.T, dir string, rec walRecord) {
	t.Helper()
	appendRawFrame(t, dir, wire.MarshalBody(&rec))
}

// appendRawFrame writes body to the log file behind a valid frame
// header, whatever body holds.
func appendRawFrame(t *testing.T, dir string, body []byte) {
	t.Helper()
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
}

// TestFailedApplyNeverReachesWAL is the regression test for the
// log-then-apply ordering bug: an operation that cannot apply must be
// rejected before it is appended, so the WAL never holds a record that
// would fail at every future replay.
func TestFailedApplyNeverReachesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	appendsBefore, _ := db.WALStats()

	// Drive doomed records through the same path Table/DB mutations use.
	// Each must fail validation and leave the WAL untouched.
	db.mu.Lock()
	doomed := []walRecord{
		{Op: opInsert, Table: "t", ID: 1, Vals: Row{int64(9)}},                     // duplicate row id
		{Op: opInsert, Table: "t", ID: 2, Vals: Row{"nine"}},                       // cell of the wrong type
		{Op: opInsert, Table: "missing", ID: 1},                                    // no such table
		{Op: opUpdate, Table: "t", ID: 99, Vals: Row{int64(0)}},                    // no such row
		{Op: opDelete, Table: "t", ID: 99},                                         // no such row
		{Op: opCreateTable, Table: "t", Schema: []Column{{Name: "v", Type: TInt}}}, // duplicate table
		{Op: opCreateIndex, Table: "t", Col: "nope"},                               // no such column
	}
	for _, rec := range doomed {
		if err := db.logAndApply(rec); err == nil {
			db.mu.Unlock()
			t.Fatalf("doomed record %+v applied cleanly", rec)
		}
	}
	db.mu.Unlock()

	appendsAfter, _ := db.WALStats()
	if appendsAfter != appendsBefore {
		t.Fatalf("failed operations reached the WAL: appends %d -> %d", appendsBefore, appendsAfter)
	}

	// Simulate a crash (no clean Close flush path) and reopen: the log
	// must replay in full with nothing skipped.
	db.wal.close()
	db.blobs.Close()
	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if n := db2.ReplaySkipped(); n != 0 {
		t.Errorf("replay skipped %d records, want 0", n)
	}
	tbl2, _ := db2.Table("t")
	if n, _ := tbl2.Len(); n != 1 {
		t.Errorf("rows after recovery = %d, want 1", n)
	}
}

// TestPoisonedWALRecordSkippedOnOpen plants a durable record that cannot
// apply — the artifact the old append-before-validate ordering could
// leave behind — and checks Open survives it: the poisoned record is
// skipped (and reported), while records after it still replay.
func TestPoisonedWALRecordSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if _, err := tbl.Insert(Row{int64(7)}); err != nil {
		t.Fatal(err)
	}
	db.wal.close()
	db.blobs.Close()

	// A poisoned record (insert clashing with row id 1) followed by a
	// perfectly good one.
	appendRawRecord(t, dir, walRecord{Op: opInsert, Table: "t", ID: 1, Vals: Row{int64(666)}})
	appendRawRecord(t, dir, walRecord{Op: opInsert, Table: "t", ID: 2, Vals: Row{int64(8)}})

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over poisoned record bricked the database: %v", err)
	}
	defer db2.Close()
	if n := db2.ReplaySkipped(); n != 1 {
		t.Errorf("ReplaySkipped = %d, want 1", n)
	}
	tbl2, _ := db2.Table("t")
	if row, ok, _ := tbl2.Get(1); !ok || row[0].(int64) != 7 {
		t.Errorf("row 1 = %v %v, want original value 7 preserved", row, ok)
	}
	if row, ok, _ := tbl2.Get(2); !ok || row[0].(int64) != 8 {
		t.Errorf("record after the poisoned one was not replayed: %v %v", row, ok)
	}
}

// TestCheckpointCrashBeforeTruncate simulates a crash in the window
// between the snapshot rename and the WAL truncation: the reopened
// database sees the new snapshot plus a WAL full of already-applied
// records. Those duplicates must be skipped benignly, not brick Open.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Save the pre-checkpoint WAL, checkpoint (snapshot + truncate), then
	// put the old WAL back — the on-disk state a crash between rename and
	// truncate leaves behind.
	walPath := filepath.Join(dir, walFile)
	saved, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.wal.close()
	db.blobs.Close()
	if err := os.WriteFile(walPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen after checkpoint-crash window: %v", err)
	}
	defer db2.Close()
	// createTable + 5 inserts are all in the snapshot already: every
	// replayed record is a duplicate and must be skipped.
	if n := db2.ReplaySkipped(); n != 6 {
		t.Errorf("ReplaySkipped = %d, want 6 (all records already in snapshot)", n)
	}
	tbl2, _ := db2.Table("t")
	if n, _ := tbl2.Len(); n != 5 {
		t.Errorf("rows = %d, want 5 (no duplicates, no losses)", n)
	}
	// The database must still be writable and durable after recovery.
	if _, err := tbl2.Insert(Row{int64(99)}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	db2.wal.close()
	db2.blobs.Close()
	db3, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	tbl3, _ := db3.Table("t")
	if n, _ := tbl3.Len(); n != 6 {
		t.Errorf("rows after second recovery = %d, want 6", n)
	}
}

// TestBlobSyncedBeforeWALSync checks the durability ordering for media
// writes: every WAL fsync must run the blob pre-sync hook first, so a
// record carrying a blob handle can never become durable ahead of its
// payload bytes (a power loss would otherwise yield a durable row whose
// payload is gone). A failing pre-sync must abort the commit, not let
// the WAL fsync proceed.
func TestBlobSyncedBeforeWALSync(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncAlways})
	if db.wal.onBeforeSync == nil {
		t.Fatal("WAL pre-sync hook not wired to the blob store")
	}
	inner := db.wal.onBeforeSync
	var hookCalls int
	db.wal.onBeforeSync = func() error { hookCalls++; return inner() }
	tbl, err := db.CreateTable("t", imageSchema)
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.PutBlob([]byte("payload the row will reference"))
	if err != nil {
		t.Fatal(err)
	}
	before := hookCalls
	if _, err := tbl.Insert(Row{int64(1), "x", 1.0, []byte{1}, h}); err != nil {
		t.Fatal(err)
	}
	if hookCalls <= before {
		t.Error("WAL fsync ran without the blob pre-sync hook")
	}

	// A pre-sync failure must fail the append and skip the fsync.
	_, syncsBefore := db.WALStats()
	db.wal.onBeforeSync = func() error { return os.ErrClosed }
	if _, err := tbl.Insert(Row{int64(2), "y", 1.0, []byte{2}, h}); err == nil {
		t.Error("append committed despite a failing blob pre-sync")
	}
	if _, syncsAfter := db.WALStats(); syncsAfter != syncsBefore {
		t.Errorf("WAL fsync ran despite pre-sync failure (syncs %d -> %d)", syncsBefore, syncsAfter)
	}
	db.wal.onBeforeSync = inner
}

// TestNoopFlushIsFree is the regression test for the phantom-fsync bug:
// Flush with nothing pending must not touch the disk or inflate the sync
// counter the E4 ablation reports.
func TestNoopFlushIsFree(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncGroup})
	db.wal.groupSize = 4
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if _, err := tbl.Insert(Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // real flush: two records pending
		t.Fatal(err)
	}
	_, syncs := db.WALStats()
	for i := 0; i < 10; i++ {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := db.WALStats(); after != syncs {
		t.Errorf("10 no-op flushes moved syncs %d -> %d, want unchanged", syncs, after)
	}
	// SyncAlways leaves nothing pending after every append: flush must
	// stay free there too.
	db2, _ := openTestDB(t, Options{Sync: SyncAlways})
	tbl2, _ := db2.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	tbl2.Insert(Row{int64(1)})
	_, syncs2 := db2.WALStats()
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, after := db2.WALStats(); after != syncs2 {
		t.Errorf("no-op flush under SyncAlways moved syncs %d -> %d", syncs2, after)
	}
}
