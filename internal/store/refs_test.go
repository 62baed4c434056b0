package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mmconf/internal/blob"
)

// The store counts blob references on its one write path: a TBlob cell
// holding a handle is a reference, taken by the write that fills the cell
// and released by the write that empties it once that write is durable,
// and a handle PutBlob returns is the caller's until ReleaseBlob. The
// tests below hold every table write to that, through the raw Table API.

// putRow stores payload, inserts it as the row's only cell and releases
// the put reference, as every writer does.
func putRow(t *testing.T, db *DB, tbl *Table, payload []byte) (uint64, blob.Handle) {
	t.Helper()
	h, err := db.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{h})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	return id, h
}

func assertFsckClean(t *testing.T, db *DB) FsckReport {
	t.Helper()
	rep, err := db.FsckBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("fsck: %+v", rep)
	}
	return rep
}

// TestWriteReleasesDisplacedBlob: a row holds its payload after the put
// reference is released, and a delete, an update that replaces the
// handle and a table drop each free the payload the row held — not
// while the WAL record is pending, and once it is durable.
func TestWriteReleasesDisplacedBlob(t *testing.T) {
	writes := map[string]func(db *DB, tbl *Table, id uint64) error{
		"delete": func(_ *DB, tbl *Table, id uint64) error { return tbl.Delete(id) },
		"update": func(db *DB, tbl *Table, id uint64) error {
			h, err := db.PutBlob([]byte("the replacement"))
			if err != nil {
				return err
			}
			defer db.ReleaseBlob(h)
			return tbl.Update(id, Row{h})
		},
		"drop table": func(db *DB, tbl *Table, _ uint64) error { return db.DropTable(tbl.name) },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			db, _ := openTestDB(t, Options{Sync: SyncGroup})
			db.wal.groupSize = 1024 // no group sync: only Flush makes records durable
			tbl, _ := db.CreateTable("t", blobSchema)
			id, h := putRow(t, db, tbl, bytes.Repeat([]byte{0x6D}, 10_000))
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.GetBlob(h); err != nil {
				t.Fatalf("the row's payload went with the put reference: %v", err)
			}
			assertFsckClean(t, db)
			if err := write(db, tbl, id); err != nil {
				t.Fatal(err)
			}
			if _, err := db.GetBlob(h); err != nil {
				t.Errorf("payload freed before the write was durable: %v", err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.GetBlob(h); !errors.Is(err, blob.ErrNotFound) {
				t.Errorf("payload after the durable %s = %v, want ErrNotFound", name, err)
			}
			assertFsckClean(t, db)
		})
	}
}

// TestPutReferenceSurvivesCompaction: a handle PutBlob returned is its
// caller's reference, which no compaction takes away before the row
// that will hold it is written.
func TestPutReferenceSurvivesCompaction(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", blobSchema)
	payload := bytes.Repeat([]byte{0x3C}, 10_000)
	h, err := db.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CompactBlobs(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{h}); err != nil {
		t.Fatal(err)
	}
	if err := db.ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	if got, err := db.GetBlob(h); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetBlob after put, compaction, insert: %d bytes, %v", len(got), err)
	}
	assertFsckClean(t, db)
}

// TestInsertRefusesUnheldHandle: a row naming a payload the blob store
// does not hold is refused before it reaches the log.
func TestInsertRefusesUnheldHandle(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", []Column{{Name: "a", Type: TBlob}, {Name: "b", Type: TBlob}})
	h, err := db.PutBlob([]byte("held"))
	if err != nil {
		t.Fatal(err)
	}
	ghost := blob.Handle{Digest: blob.Sum([]byte("ghost")), Length: 5}
	before := db.Position()
	if _, err := tbl.Insert(Row{h, ghost}); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Insert of an unheld handle = %v, want ErrNotFound", err)
	}
	if n, _ := tbl.Len(); n != 0 || db.Position() != before {
		t.Errorf("refused insert left %d rows, position %d -> %d", n, before, db.Position())
	}
	// The held handle's reference the refused row took is given back.
	if err := db.ReleaseBlob(h); err != nil {
		t.Fatal(err)
	}
	if rep := assertFsckClean(t, db); rep.Objects != 0 {
		t.Errorf("refused insert kept %d objects", rep.Objects)
	}
}

// refWalk is one seeded random walk of blob puts and releases and table
// writes over two tables, each with two blob columns. It keeps the model
// the property is checked against: the put references it holds and the
// rows it wrote.
type refWalk struct {
	t     *testing.T
	rng   *rand.Rand
	dir   string
	opts  Options
	db    *DB
	pool  [][]byte                       // payloads the walk puts
	held  []blob.Handle                  // put references not yet released
	rows  map[string]map[uint64][2]int64 // table -> id -> pool index+1 per blob column (0: zero handle)
	saw   string                         // the steps so far, for a failure message
	steps int
}

var refSchema = []Column{{Name: "n", Type: TInt}, {Name: "a", Type: TBlob}, {Name: "b", Type: TBlob}}

func (w *refWalk) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("after %d steps (%s): %s", w.steps, w.saw, fmt.Sprintf(format, args...))
}

func (w *refWalk) handle(p int64) blob.Handle {
	if p == 0 {
		return blob.Handle{}
	}
	data := w.pool[p-1]
	return blob.Handle{Digest: blob.Sum(data), Length: uint32(len(data))}
}

// live reports whether the model says the store holds payload p: a put
// reference or a row cell names it.
func (w *refWalk) live(p int64) bool {
	h := w.handle(p)
	for _, x := range w.held {
		if x == h {
			return true
		}
	}
	for _, rows := range w.rows {
		for _, r := range rows {
			if w.handle(r[0]) == h || w.handle(r[1]) == h {
				return true
			}
		}
	}
	return false
}

// cells picks a row's blob cells: mostly payloads the walk holds a put
// reference to, sometimes the zero handle, sometimes any payload of the
// pool — which a row may hold, or the store may have freed.
func (w *refWalk) cells() [2]int64 {
	var c [2]int64
	for i := range c {
		switch k := w.rng.Intn(8); {
		case k == 0:
			c[i] = 0
		case k <= 2 || len(w.held) == 0:
			c[i] = int64(w.rng.Intn(len(w.pool)) + 1)
		default:
			h := w.held[w.rng.Intn(len(w.held))]
			for p := range w.pool {
				if w.handle(int64(p+1)) == h {
					c[i] = int64(p + 1)
				}
			}
		}
	}
	return c
}

// write runs one row write and checks its outcome against the model: it
// may be refused only for naming a payload the model does not hold.
func (w *refWalk) write(c [2]int64, do func(Row) error) bool {
	err := do(Row{w.rng.Int63n(100), w.handle(c[0]), w.handle(c[1])})
	if err == nil {
		return true
	}
	if !errors.Is(err, blob.ErrNotFound) {
		w.fail("write of %v: %v", c, err)
	}
	for _, p := range c {
		if p != 0 && !w.live(p) {
			return false
		}
	}
	w.fail("write of %v refused though every payload it names is held: %v", c, err)
	return false
}

func (w *refWalk) table() (string, *Table) {
	name := fmt.Sprintf("t%d", w.rng.Intn(2))
	if w.rows[name] == nil {
		return name, nil
	}
	tbl, err := w.db.Table(name)
	if err != nil {
		w.fail("%v", err)
	}
	return name, tbl
}

// anyRow picks one of the table's rows by the walk's seed.
func (w *refWalk) anyRow(name string) (uint64, bool) {
	var ids []uint64
	for id := range w.rows[name] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[w.rng.Intn(len(ids))], true
}

func (w *refWalk) step() {
	w.steps++
	name, tbl := w.table()
	switch op := w.rng.Intn(16); {
	case tbl == nil:
		w.saw += " create " + name
		if _, err := w.db.CreateTable(name, refSchema); err != nil {
			w.fail("%v", err)
		}
		w.rows[name] = map[uint64][2]int64{}
	case op < 3:
		w.saw += " put"
		p := w.pool[w.rng.Intn(len(w.pool))]
		h, err := w.db.PutBlob(p)
		if err != nil {
			w.fail("%v", err)
		}
		w.held = append(w.held, h)
	case op < 5 && len(w.held) > 0:
		w.saw += " release"
		i := w.rng.Intn(len(w.held))
		if err := w.db.ReleaseBlob(w.held[i]); err != nil {
			w.fail("release: %v", err)
		}
		w.held = append(w.held[:i], w.held[i+1:]...)
	case op < 7:
		w.saw += " insert " + name
		c := w.cells()
		var id uint64
		if w.write(c, func(r Row) (err error) { id, err = tbl.Insert(r); return err }) {
			w.rows[name][id] = c
		}
	case op < 8:
		id := uint64(w.rng.Intn(40) + 1)
		w.saw += fmt.Sprintf(" insert %s#%d", name, id)
		if _, dup := w.rows[name][id]; dup {
			return
		}
		c := w.cells()
		if w.write(c, func(r Row) error { return tbl.InsertWithID(id, r) }) {
			w.rows[name][id] = c
		}
	case op < 11:
		id, ok := w.anyRow(name)
		if !ok {
			return
		}
		w.saw += fmt.Sprintf(" update %s#%d", name, id)
		c := w.cells()
		if w.rng.Intn(3) == 0 {
			c = w.rows[name][id] // same blob cells, other int
		}
		if w.write(c, func(r Row) error { return tbl.Update(id, r) }) {
			w.rows[name][id] = c
		}
	case op < 13:
		id, ok := w.anyRow(name)
		if !ok {
			return
		}
		w.saw += fmt.Sprintf(" delete %s#%d", name, id)
		if err := tbl.Delete(id); err != nil {
			w.fail("%v", err)
		}
		delete(w.rows[name], id)
	case op < 14:
		w.saw += " drop " + name
		if err := w.db.DropTable(name); err != nil {
			w.fail("%v", err)
		}
		delete(w.rows, name)
	default:
		switch w.rng.Intn(4) {
		case 0:
			w.saw += " flush"
			if err := w.db.Flush(); err != nil {
				w.fail("%v", err)
			}
		case 1:
			w.saw += " checkpoint"
			if err := w.db.Checkpoint(); err != nil {
				w.fail("%v", err)
			}
		case 2:
			w.saw += " compact"
			if _, err := w.db.CompactBlobs(); err != nil {
				w.fail("%v", err)
			}
		case 3:
			w.saw += " reopen"
			w.reopen()
		}
	}
}

// walkGroup is the walks' group-commit batch: small, so SyncGroup
// walks sync (and drain releases) every few writes.
const walkGroup = 8

// reopen closes and reopens the store. The put references the walk held
// die with the process that held them.
func (w *refWalk) reopen() {
	if err := w.db.Close(); err != nil {
		w.fail("close: %v", err)
	}
	db, err := Open(w.dir, w.opts)
	if err != nil {
		w.fail("reopen: %v", err)
	}
	db.wal.groupSize = walkGroup
	w.db, w.held = db, nil
}

// quiesce releases every put reference, flushes and checks that the
// blob store holds exactly what the rows reference, each object with a
// reference count equal to the cells that name it.
func (w *refWalk) quiesce() {
	w.saw += " quiesce"
	for _, h := range w.held {
		if err := w.db.ReleaseBlob(h); err != nil {
			w.fail("release: %v", err)
		}
	}
	w.held = nil
	if err := w.db.Flush(); err != nil {
		w.fail("%v", err)
	}
	rep, err := w.db.FsckBlobs()
	if err != nil {
		w.fail("%v", err)
	}
	if !rep.Clean() || rep.RefMismatches != 0 || rep.Orphans != 0 || len(rep.Missing) != 0 {
		w.fail("fsck: %+v", rep)
	}
	distinct := map[int64]bool{}
	for _, rows := range w.rows {
		for _, r := range rows {
			for _, p := range r {
				if p != 0 {
					distinct[p] = true
				}
			}
		}
	}
	if rep.Objects != len(distinct) {
		w.fail("store holds %d objects, rows name %d payloads", rep.Objects, len(distinct))
	}
}

// TestBlobRefsFollowRows is the property: under either durable sync mode,
// through any walk of puts, releases, inserts, updates, deletes, table
// drops, flushes, checkpoints, compactions and reopens, every quiescent
// point (each put reference released, then a flush) finds the blob store
// holding exactly the payloads rows reference, each counted once per
// cell. A failing walk names its mode and seed.
func TestBlobRefsFollowRows(t *testing.T) {
	// Payloads are runs of four 512-byte blocks over 512-byte chunks, so
	// distinct payloads share chunks; one is shorter than a chunk.
	blocks := make([][]byte, 4)
	src := rand.New(rand.NewSource(1))
	for i := range blocks {
		blocks[i] = make([]byte, 512)
		src.Read(blocks[i])
	}
	pool := [][]byte{[]byte("short")}
	for i := 0; i < 7; i++ {
		var p []byte
		for j := 0; j <= i%3; j++ {
			p = append(p, blocks[(i+j)%len(blocks)]...)
		}
		pool = append(pool, p)
	}
	for _, mode := range []SyncMode{SyncAlways, SyncGroup} {
		for seed := int64(1); seed <= 16; seed++ {
			t.Run(fmt.Sprintf("mode=%d/seed=%d", mode, seed), func(t *testing.T) {
				opts := Options{Sync: mode, Blob: blob.Options{ChunkSize: 512, SegmentSize: 16 << 10}}
				dir := t.TempDir()
				db, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				db.wal.groupSize = walkGroup
				w := &refWalk{t: t, rng: rand.New(rand.NewSource(seed)), dir: dir, opts: opts, db: db, pool: pool, rows: map[string]map[uint64][2]int64{}}
				t.Cleanup(func() { w.db.Close() })
				for i := 0; i < 200; i++ {
					w.step()
					if w.rng.Intn(20) == 0 {
						w.quiesce()
					}
				}
				w.quiesce()
			})
		}
	}
}

// TestBlobRefsUnderConcurrentWriters: writers on their own tables share
// payloads through dedup while another goroutine flushes and compacts,
// so releases queue and drain under every interleaving; once the writers
// are done and a flush has run, the counts are the cells again.
func TestBlobRefsUnderConcurrentWriters(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncGroup, Blob: blob.Options{ChunkSize: 512, SegmentSize: 16 << 10}})
	db.wal.groupSize = 4
	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = bytes.Repeat([]byte{byte(i + 1)}, 700+100*i)
	}
	const writers, ops = 4, 150
	done := make(chan struct{})
	errc := make(chan error, writers+1)
	go func() {
		for {
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
			if err := db.Flush(); err != nil {
				errc <- err
				return
			}
			if _, err := db.CompactBlobs(); err != nil {
				errc <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errc <- func() error {
				rng := rand.New(rand.NewSource(int64(w)))
				tbl, err := db.CreateTable(fmt.Sprintf("w%d", w), blobSchema)
				if err != nil {
					return err
				}
				var ids []uint64
				for i := 0; i < ops; i++ {
					h, err := db.PutBlob(pool[rng.Intn(len(pool))])
					if err != nil {
						return err
					}
					switch {
					case len(ids) > 0 && rng.Intn(3) == 0:
						err = tbl.Update(ids[rng.Intn(len(ids))], Row{h})
					case len(ids) > 0 && rng.Intn(3) == 0:
						k := rng.Intn(len(ids))
						err = tbl.Delete(ids[k])
						ids = append(ids[:k], ids[k+1:]...)
					default:
						var id uint64
						if id, err = tbl.Insert(Row{h}); err == nil {
							ids = append(ids, id)
						}
					}
					if rerr := db.ReleaseBlob(h); err == nil {
						err = rerr
					}
					if err != nil {
						return err
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(done)
	for i := 0; i < writers+1; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	assertFsckClean(t, db)
}
