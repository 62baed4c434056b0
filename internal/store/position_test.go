package store

import (
	"sync"
	"testing"
)

// TestPositionCountsAppliedRecords walks every mutation the store logs and
// checks the change position rises by exactly one for each, and by nothing
// for reads, blob puts and flushes.
func TestPositionCountsAppliedRecords(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	if got := db.Position(); got != 0 {
		t.Fatalf("fresh store at position %d", got)
	}
	want := uint64(0)
	step := func(what string, moved bool) {
		t.Helper()
		if moved {
			want++
		}
		if got := db.Position(); got != want {
			t.Fatalf("after %s: position %d, want %d", what, got, want)
		}
	}

	tbl, err := db.CreateTable("t", imageSchema)
	if err != nil {
		t.Fatal(err)
	}
	step("create table", true)
	h, err := db.PutBlob([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	step("blob put", false)
	row := Row{int64(1), "a", 1.0, []byte{1}, h}
	id, err := tbl.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	step("insert", true)
	if err := tbl.InsertWithID(id+10, row); err != nil {
		t.Fatal(err)
	}
	step("insert with id", true)
	if err := tbl.Update(id, Row{int64(2), "b", 1.0, []byte{2}, h}); err != nil {
		t.Fatal(err)
	}
	step("update", true)
	if _, err := tbl.UpdateReturningOld(id, row); err != nil {
		t.Fatal(err)
	}
	step("update returning old", true)
	if err := tbl.CreateIndex("FLD_TEXTS"); err != nil {
		t.Fatal(err)
	}
	step("create index", true)

	if _, _, err := tbl.Get(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.LookupString("FLD_TEXTS", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Scan(func(uint64, Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	step("reads and a flush", false)

	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	step("delete", true)
	if _, err := tbl.DeleteReturningOld(id + 10); err != nil {
		t.Fatal(err)
	}
	step("delete returning old", true)
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	step("drop table", true)
}

// TestPositionIgnoresRejectedRecords: an operation the store refuses —
// through the public API or at validateLocked — changes nothing, so the
// position must not claim a change.
func TestPositionIgnoresRejectedRecords(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertWithID(1, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	before := db.Position()

	if _, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := db.DropTable("missing"); err == nil {
		t.Error("drop of a missing table accepted")
	}
	if _, err := tbl.Insert(Row{"not an int"}); err == nil {
		t.Error("mistyped row accepted")
	}
	if err := tbl.InsertWithID(1, Row{int64(2)}); err == nil {
		t.Error("duplicate row id accepted")
	}
	if err := tbl.Update(99, Row{int64(2)}); err == nil {
		t.Error("update of a missing row accepted")
	}
	if err := tbl.Delete(99); err == nil {
		t.Error("delete of a missing row accepted")
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on a missing column accepted")
	}
	db.mu.Lock()
	for _, rec := range []walRecord{
		{Op: opInsert, Table: "t", ID: 1, Vals: []value{{Kind: TInt, I: 9}}},
		{Op: opInsert, Table: "missing", ID: 1},
		{Op: opUpdate, Table: "t", ID: 99, Vals: []value{{Kind: TInt}}},
		{Op: opDelete, Table: "t", ID: 99},
		{Op: opCreateTable, Table: "t", Schema: []Column{{Name: "v", Type: TInt}}},
		{Op: opCreateIndex, Table: "t", Col: "nope"},
	} {
		if err := db.logAndApply(rec); err == nil {
			t.Errorf("doomed record %+v applied", rec)
		}
	}
	db.mu.Unlock()

	if got := db.Position(); got != before {
		t.Fatalf("rejected operations moved the position: %d -> %d", before, got)
	}
}

// TestPositionSurvivesCheckpoint: Checkpoint truncates the WAL, but the
// position is a cursor a replication loop holds on to — it must neither
// move nor go backwards.
func TestPositionSurvivesCheckpoint(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Position()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Position(); got != before {
		t.Fatalf("checkpoint moved the position: %d -> %d", before, got)
	}
	if _, err := tbl.Insert(Row{int64(5)}); err != nil {
		t.Fatal(err)
	}
	if got := db.Position(); got != before+1 {
		t.Fatalf("insert after checkpoint: position %d, want %d", got, before+1)
	}
}

// TestPositionUnderConcurrentWriters reads the position while writers
// run: every read is monotone, and the final value counts every write.
func TestPositionUnderConcurrentWriters(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	base := db.Position()
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := tbl.Insert(Row{int64(w*each + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	last := base
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if got := db.Position(); got < last {
			t.Fatalf("position went backwards: %d after %d", got, last)
		} else {
			last = got
		}
	}
	if got := db.Position(); got != base+writers*each {
		t.Fatalf("position %d after %d inserts from %d", got, writers*each, base)
	}
}
