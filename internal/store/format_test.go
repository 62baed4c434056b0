package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mmconf/internal/blob"
	"mmconf/internal/wire"
)

// mediaImageSchema is the image table of package mediadb: four cells,
// the last a payload handle.
var mediaImageSchema = []Column{
	{Name: "FLD_QUALITY", Type: TInt},
	{Name: "FLD_TEXTS", Type: TString},
	{Name: "FLD_CM", Type: TFloat},
	{Name: "FLD_DATA", Type: TBlob},
}

// writeSyscalls reads the process's write(2) count from /proc/self/io.
func writeSyscalls() (int64, bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscw: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestImageRowUpdateRecord pins what one row update costs the log: an
// image-table update — the text write of the fetch_cold_rw workload — is
// a record body of at most 160 bytes, and the append is one write(2),
// frame header and body together. The write count is the whole
// process's, which other goroutines of the test binary add to; they
// never take from it, so the least count over five updates is the
// append's own, and an append of two writes still shows.
func TestImageRowUpdateRecord(t *testing.T) {
	db, dir := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("IMAGE_OBJECTS_TABLE", mediaImageSchema)
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.PutBlob(make([]byte, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{int64(2), "", 0.05, h})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	least := int64(math.MaxInt64)
	for i := 1; i <= 5; i++ {
		size := fileSize(t, walPath)
		writes, counted := writeSyscalls()
		if err := tbl.Update(id, Row{int64(2), fmt.Sprintf("d0-%07d", i), 0.05, h}); err != nil {
			t.Fatal(err)
		}
		if after, ok := writeSyscalls(); counted && ok {
			least = min(least, after-writes)
		}
		if body := fileSize(t, walPath) - size - frameHeader; body > 160 {
			t.Errorf("image-row update record body is %d bytes, want at most 160", body)
		}
	}
	switch least {
	case math.MaxInt64:
		t.Log("no /proc/self/io: write calls not counted")
	case 1:
	default:
		t.Errorf("one WAL append made at least %d write calls, want 1", least)
	}
}

// TestUndecodableRecordIsSkipped: a record whose CRC holds but whose
// body does not decode is not a torn tail. Replay skips and counts it,
// as it does a record that does not apply, and replays what follows;
// the log is not cut there.
func TestUndecodableRecordIsSkipped(t *testing.T) {
	db, dir := openTestDB(t, Options{Sync: SyncAlways})
	tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	db.wal.close()
	db.blobs.Close()

	appendRawFrame(t, dir, []byte{byte(opInsert), 0xFF, 0xFF, 0xFF}) // table name cut short
	// A cell of the wrong type decodes but must not load.
	appendRawRecord(t, dir, walRecord{Op: opInsert, Table: "t", ID: 5, Vals: Row{"five"}})
	appendRawRecord(t, dir, walRecord{Op: opInsert, Table: "t", ID: 2, Vals: Row{int64(2)}})
	walPath := filepath.Join(dir, walFile)
	size := fileSize(t, walPath)

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.ReplaySkipped(); n != 2 {
		t.Errorf("ReplaySkipped = %d, want 2", n)
	}
	tbl2, _ := db2.Table("t")
	if row, ok, _ := tbl2.Get(2); !ok || row[0] != int64(2) {
		t.Errorf("record after the undecodable one was not replayed: %v %v", row, ok)
	}
	if _, ok, _ := tbl2.Get(5); ok {
		t.Error("a wrongly typed cell was loaded")
	}
	if got := fileSize(t, walPath); got != size {
		t.Errorf("replay cut the log from %d to %d bytes", size, got)
	}
}

// TestGobEraFilesRefused: a directory the gob-era store wrote is refused
// by name, and neither file is truncated or rewritten. There is no
// migrator.
func TestGobEraFilesRefused(t *testing.T) {
	type gobValue struct {
		Kind ColumnType
		I    int64
		F    float64
		S    string
		B    []byte
		H    blob.Handle
	}
	type gobTable struct {
		Name    string
		Schema  []Column
		NextID  uint64
		IDs     []uint64
		Rows    [][]gobValue
		Indexes []string
	}
	type gobRecord struct {
		Op     opKind
		Table  string
		Schema []Column
		ID     uint64
		Vals   []gobValue
		Col    string
	}
	schema := []Column{{Name: "v", Type: TInt}}
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(struct{ Tables []gobTable }{[]gobTable{{
		Name: "t", Schema: schema, NextID: 2, IDs: []uint64{1}, Rows: [][]gobValue{{{Kind: TInt, I: 7}}},
	}}}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(gobRecord{Op: opInsert, Table: "t", ID: 2, Vals: []gobValue{{Kind: TInt, I: 8}}}); err != nil {
		t.Fatal(err)
	}
	log := binary.LittleEndian.AppendUint32(nil, uint32(body.Len()))
	log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body.Bytes()))
	log = append(log, body.Bytes()...)

	for _, tc := range []struct {
		name  string
		files map[string][]byte
		named string
	}{
		{"snapshot and wal", map[string][]byte{gobSnapshotFile: snap.Bytes(), walFile: log}, gobSnapshotFile},
		{"wal alone", map[string][]byte{walFile: log}, walFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(dir, Options{})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a gob-era directory")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, tc.named)) {
				t.Errorf("error %q does not name %s", err, tc.named)
			}
			for name, want := range tc.files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s changed: %d bytes, was %d (%v)", name, len(got), len(want), err)
				}
			}
		})
	}
}

// TestShortLogIsFresh: an empty WAL, or one torn while its header was
// written, is a fresh log — Open writes the header and carries on.
func TestShortLogIsFresh(t *testing.T) {
	for _, start := range []string{"", walHeader[:5]} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), []byte(start), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatalf("log %q: %v", start, err)
		}
		tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(Row{int64(1)}); err != nil {
			t.Fatal(err)
		}
		db.Close()
		db, err = Open(dir, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatalf("log %q, reopened: %v", start, err)
		}
		tbl, _ = db.Table("t")
		if n, _ := tbl.Len(); n != 1 {
			t.Errorf("log %q: %d rows after reopen, want 1", start, n)
		}
		db.Close()
	}
}

// TestSnapshotHoldsEveryTable checkpoints tables of every column type,
// with an index and a deleted tail row, and reopens from the snapshot
// alone: rows, index lookups and the next id all survive.
func TestSnapshotHoldsEveryTable(t *testing.T) {
	db, dir := openTestDB(t, Options{Sync: SyncAlways})
	tbl, err := db.CreateTable("t", imageSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("FLD_TEXTS"); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{int64(-3), "a", 0.5, []byte{1, 2}, blob.Handle{}},
		{int64(4), "b", -1.25, []byte(nil), blob.Handle{}},
		{int64(5), "a", 0.0, []byte{3}, blob.Handle{}},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("empty", []Column{{Name: "h", Type: TBlob}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Tables(); len(got) != 2 {
		t.Fatalf("tables after reopen: %v", got)
	}
	tbl2, _ := db2.Table("t")
	for i, want := range rows[:2] {
		got, ok, _ := tbl2.Get(uint64(i + 1))
		if !ok || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || !bytes.Equal(got[3].([]byte), want[3].([]byte)) {
			t.Errorf("row %d = %v, want %v", i+1, got, want)
		}
	}
	if ids, err := tbl2.LookupString("FLD_TEXTS", "a"); err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("index lookup after reopen: %v %v", ids, err)
	}
	if id, err := tbl2.Insert(rows[2]); err != nil || id != 4 {
		t.Errorf("next id after reopen = %d (%v), want 4", id, err)
	}
}

// FuzzWALRecord throws arbitrary bodies at the WAL record decoder, which
// replay runs on whatever a crash or a bad disk left in the log. A body
// that decodes must re-encode to bytes that decode to the same record,
// and applying it to a live state must never panic.
func FuzzWALRecord(f *testing.F) {
	h := blob.Handle{Digest: blob.Digest{0xAA, 1}, Length: 4096}
	for _, rec := range []walRecord{
		{Op: opCreateTable, Table: "t", Schema: imageSchema},
		{Op: opInsert, Table: "t", ID: 3, Vals: Row{int64(2), "lesion", 0.5, []byte{1, 2}, h}},
		{Op: opUpdate, Table: "t", ID: 1, Vals: Row{int64(-1), "", 0.0, []byte(nil), blob.Handle{}}},
		{Op: opDelete, Table: "t", ID: 1},
		{Op: opCreateIndex, Table: "t", Col: "FLD_QUALITY"},
		{Op: opDropTable, Table: "t"},
	} {
		f.Add(wire.MarshalBody(&rec))
	}
	f.Add([]byte{byte(opInsert), 1, 't', 0, 1, 1, cellInvalid, 0})
	f.Add([]byte{byte(opInsert), 1, 't', 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		if wire.DecodeBodyBytes(data, &rec) != nil {
			return
		}
		out := wire.MarshalBody(&rec)
		var back walRecord
		if err := wire.DecodeBodyBytes(out, &back); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(wire.MarshalBody(&back), out) {
			t.Fatalf("re-encode is not a fixed point: %+v vs %+v", rec, back)
		}
		db := &DB{state: make(map[string]*table)}
		for _, setup := range []walRecord{
			{Op: opCreateTable, Table: "t", Schema: imageSchema},
			{Op: opInsert, Table: "t", ID: 1, Vals: Row{int64(2), "a", 0.5, []byte{1}, h}},
			{Op: opCreateIndex, Table: "t", Col: "FLD_TEXTS"},
		} {
			if err := db.apply(setup); err != nil {
				t.Fatal(err)
			}
		}
		if db.apply(rec) == nil {
			db.blobRefCountsLocked()
		}
	})
}
