package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"mmconf/internal/blob"
	"mmconf/internal/wire"
)

// Options configure a DB.
type Options struct {
	// Sync selects the WAL durability mode. The zero value is SyncAlways.
	Sync SyncMode
	// Blob tunes the content-addressed blob store (chunk size, segment
	// size, background compaction threshold). Zero values select the
	// blob package defaults.
	Blob blob.Options
}

// DB is the database server's storage engine: a directory holding a
// snapshot, a write-ahead log, and a content-addressed blob store. Open
// replays the WAL over the snapshot, so a crash at any point loses at
// most the operations the sync mode had not yet flushed.
//
// A TBlob cell holding a handle is a reference the store counts: the
// write that puts the handle into the cell takes it (logAndApply), the
// write that takes it out releases it, and a handle PutBlob or
// PutBlobFromChunks returns is the caller's own reference until
// ReleaseBlob. No caller releases what a row held. The counts are not
// journaled: every Open recomputes them from the surviving cells, so
// they heal after any crash.
type DB struct {
	mu    sync.RWMutex
	dir   string
	opts  Options
	wal   *wal
	blobs *blob.Store
	state map[string]*table
	// pos is the change position: how many records logAndApply has
	// applied since Open. Written under mu, read without it (Position).
	pos atomic.Uint64
	// replaySkipped counts WAL records recovery could not apply and
	// skipped (poisoned legacy records, or records a checkpoint already
	// covers after a crash between snapshot rename and WAL truncation).
	replaySkipped int
	// blobMissing holds digests that some TBlob cell references but the
	// blob store does not hold. The WAL's pre-sync hook makes payloads
	// durable before the rows that reference them, so this is empty in
	// normal operation; it can still fill under SyncNever (rows durable
	// only by OS writeback) or torn segment writes. Reads of those
	// cells fail loudly; fsck reports them.
	blobMissing []blob.Digest

	// relMu guards pendingRel: the references of cells a write emptied
	// or overwrote, queued until the WAL records of those writes are
	// fsynced. Releasing earlier could free payload bytes whose delete is
	// lost in a crash; queued handles lost in a crash merely leak until
	// the next Open's refcount recompute reclaims them.
	relMu      sync.Mutex
	pendingRel []blob.Handle
}

const (
	snapshotFile = "snapshot"
	walFile      = "wal.log"
	casDir       = "cas"
	// gobSnapshotFile is where the gob-era format kept its snapshot.
	gobSnapshotFile = "snapshot.gob"
)

// snapshotHeader opens every snapshot: the file's magic and format
// version (see walHeader).
const snapshotHeader = "mmconf snapshot 2\n"

// Open opens (or creates) a database in dir. It refuses a directory
// holding files of an older format — the gob-era snapshot.gob, or a WAL
// without its header — naming the file and leaving it untouched.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	old := filepath.Join(dir, gobSnapshotFile)
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("store: %s is a gob-era snapshot; this release does not read it and leaves it untouched", old)
	}
	db := &DB{dir: dir, opts: opts, state: make(map[string]*table)}
	if err := db.loadSnapshot(); err != nil {
		return nil, err
	}
	w, skipped, err := openWAL(filepath.Join(dir, walFile), opts.Sync, db.apply)
	if err != nil {
		return nil, err
	}
	db.replaySkipped = skipped
	db.wal = w
	bs, err := blob.Open(filepath.Join(dir, casDir), opts.Blob)
	if err != nil {
		w.close()
		return nil, err
	}
	db.blobs = bs
	w.onSync = db.drainBlobReleases
	// Blob payloads must never lag the rows that reference them: fsync
	// dirty blob segments before every WAL fsync, so a record carrying a
	// new handle only becomes durable after its payload bytes are.
	w.onBeforeSync = bs.Sync
	// Refcounts are not journaled, and replay and snapshot load take
	// none: recompute them from the rows that actually survived
	// recovery. Orphans (payloads put by operations whose rows never
	// became durable) are freed here. This is ResetRefs' only caller.
	db.blobMissing = db.blobs.ResetRefs(db.blobRefCountsLocked())
	return db, nil
}

// blobRefCountsLocked counts, per digest, how many TBlob cells reference
// each stored object. Caller holds db.mu (or is single-threaded in Open).
func (db *DB) blobRefCountsLocked() map[blob.Digest]int64 {
	counts := make(map[blob.Digest]int64)
	for _, tb := range db.state {
		for ci, col := range tb.schema {
			if col.Type != TBlob {
				continue
			}
			for _, row := range tb.rows {
				if h := row[ci].(blob.Handle); !h.IsZero() {
					counts[h.Digest]++
				}
			}
		}
	}
	return counts
}

// drainBlobReleases performs the releases queued behind WAL durability.
// Called by the WAL after every successful fsync and by checkpoints.
func (db *DB) drainBlobReleases() {
	db.relMu.Lock()
	pending := db.pendingRel
	db.pendingRel = nil
	db.relMu.Unlock()
	db.releaseNow(pending)
}

// releaseDurable releases the references of cells the records just
// logged emptied or overwrote, once those records are durable: it
// queues them, and drains the queue at once if the WAL is already
// clean. Queueing first means a concurrent fsync either drains them or
// ran before the enqueue, and then the clean check does. Caller holds
// db.mu, so no record is appended in between.
func (db *DB) releaseDurable(hs []blob.Handle) {
	db.relMu.Lock()
	db.pendingRel = append(db.pendingRel, hs...)
	db.relMu.Unlock()
	if db.wal.isClean() {
		db.drainBlobReleases()
	}
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	if err := db.wal.flush(); err != nil {
		first = err
	}
	db.drainBlobReleases()
	if err := db.blobs.Sync(); err != nil && first == nil {
		first = err
	}
	if err := db.wal.close(); err != nil && first == nil {
		first = err
	}
	if err := db.blobs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Flush forces pending group-committed WAL records and blob writes to disk.
func (db *DB) Flush() error {
	if err := db.blobs.Sync(); err != nil {
		return err
	}
	return db.wal.flush()
}

// tableLocked returns the internal table; the caller holds db.mu.
func (db *DB) tableLocked(name string) (*table, error) {
	tb, ok := db.state[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return tb, nil
}

// logAndApply validates rec against the current state, logs it, then
// applies it. Validation MUST come first: a record that cannot apply
// must never reach the WAL — it would be replayed at every future Open,
// and a hard replay failure would brick the database over one bad
// operation. Caller holds db.mu.
//
// It is the one place blob references are counted (see DB). Per TBlob
// column, a handle the record puts into a cell is retained before the
// append — one the blob store does not hold refuses the record, wrapping
// blob.ErrNotFound — and a handle it takes out of one is released once
// the record is durable. A cell that keeps its handle costs nothing.
func (db *DB) logAndApply(rec walRecord) error {
	if err := db.validateLocked(rec); err != nil {
		return err
	}
	var addBuf, dropBuf [4]blob.Handle
	added, displaced := addBuf[:0], dropBuf[:0]
	switch tb := db.state[rec.Table]; rec.Op {
	case opInsert, opUpdate, opDelete:
		added, displaced = blobDelta(tb.schema, tb.rows[rec.ID], rec.Vals, added, displaced)
	case opDropTable:
		for _, row := range tb.rows {
			_, displaced = blobDelta(tb.schema, row, nil, nil, displaced)
		}
	}
	for i, h := range added {
		if err := db.blobs.Retain(h); err != nil {
			db.releaseNow(added[:i])
			return fmt.Errorf("store: table %q: %w", rec.Table, err)
		}
	}
	if err := db.wal.append(rec); err != nil {
		db.releaseNow(added)
		return err
	}
	db.applyValid(rec)
	db.pos.Add(1)
	if len(displaced) > 0 {
		db.releaseDurable(displaced)
	}
	return nil
}

// releaseNow drops references no cell holds.
func (db *DB) releaseNow(hs []blob.Handle) {
	for _, h := range hs {
		_ = db.blobs.Release(h)
	}
}

// blobDelta appends to added the handle each TBlob column of row now
// holds where row was held another, and to displaced the one was held
// there. A nil row holds no handles; the zero handle is no reference.
func blobDelta(schema []Column, was, now Row, added, displaced []blob.Handle) ([]blob.Handle, []blob.Handle) {
	for i, col := range schema {
		if col.Type != TBlob {
			continue
		}
		var from, to blob.Handle
		if was != nil {
			from = was[i].(blob.Handle)
		}
		if now != nil {
			to = now[i].(blob.Handle)
		}
		if from == to {
			continue
		}
		if !to.IsZero() {
			added = append(added, to)
		}
		if !from.IsZero() {
			displaced = append(displaced, from)
		}
	}
	return added, displaced
}

// Position returns the store's change position: a counter that rises by
// one with every record applied to the relational state (row insert,
// update and delete, table create and drop, index create) and by nothing
// else — a rejected operation, a read, a blob put and a Checkpoint all
// leave it alone. It counts from zero at every Open, so it orders changes
// within one process lifetime only. Two reads returning the same value
// bracket an interval in which no table changed: a reader that notes the
// position BEFORE reading rows may reuse what it derived from them for
// as long as Position still returns that value. (Noting it after the read
// would be unsound — a write landing mid-read would already be counted.)
// Unlike WALStats this is a cursor, not a statistic: it is never reset.
func (db *DB) Position() uint64 { return db.pos.Load() }

// validateLocked checks that rec applies to the current state, mutating
// nothing: the table and row it names exist (or, for a create, do not),
// a schema is well formed, every cell of a row fits its column's type,
// and an index is on an indexable column it does not already cover. The
// WAL only ever holds records that pass it, and replay applies no record
// that fails it. Caller holds db.mu.
func (db *DB) validateLocked(rec walRecord) error {
	if rec.Op == opCreateTable {
		if _, dup := db.state[rec.Table]; dup {
			return fmt.Errorf("store: table %q already exists", rec.Table)
		}
		return checkSchema(rec.Table, rec.Schema)
	}
	tb, err := db.tableLocked(rec.Table)
	if err != nil {
		return err
	}
	_, exists := tb.rows[rec.ID]
	switch rec.Op {
	case opDropTable:
		return nil
	case opInsert:
		if exists {
			return fmt.Errorf("store: table %q: duplicate row id %d", rec.Table, rec.ID)
		}
		return checkRow(tb.schema, rec.Vals)
	case opUpdate:
		if !exists {
			return fmt.Errorf("store: table %q: no row %d", rec.Table, rec.ID)
		}
		return checkRow(tb.schema, rec.Vals)
	case opDelete:
		if !exists {
			return fmt.Errorf("store: table %q: no row %d", rec.Table, rec.ID)
		}
		return nil
	case opCreateIndex:
		return tb.validateIndex(rec.Col)
	default:
		return fmt.Errorf("store: unknown wal op %d", rec.Op)
	}
}

// apply folds one WAL record into the in-memory state if validateLocked
// accepts it, and changes nothing otherwise. It must stay a pure
// function of (state, record) so recovery replays deterministically.
func (db *DB) apply(rec walRecord) error {
	if err := db.validateLocked(rec); err != nil {
		return err
	}
	db.applyValid(rec)
	return nil
}

// applyValid folds a record validateLocked has accepted.
func (db *DB) applyValid(rec walRecord) {
	switch rec.Op {
	case opCreateTable:
		tb := newTable(rec.Table, rec.Schema)
		tb.nextID = max(tb.nextID, rec.ID)
		db.state[rec.Table] = tb
	case opDropTable:
		delete(db.state, rec.Table)
	case opInsert:
		db.state[rec.Table].insert(rec.ID, rec.Vals)
	case opUpdate:
		db.state[rec.Table].update(rec.ID, rec.Vals)
	case opDelete:
		db.state[rec.Table].delete(rec.ID)
	case opCreateIndex:
		db.state[rec.Table].createIndex(rec.Col)
	}
}

// CreateTable creates a new relation.
func (db *DB) CreateTable(name string, schema []Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.logAndApply(walRecord{Op: opCreateTable, Table: name, Schema: schema}); err != nil {
		return nil, err
	}
	return &Table{db: db, name: name}, nil
}

// DropTable removes a relation and all its rows, releasing the blob
// reference each of their cells held once the drop is durable.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.logAndApply(walRecord{Op: opDropTable, Table: name})
}

// Table returns a handle to an existing relation.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.state[name]; !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return &Table{db: db, name: name}, nil
}

// HasTable reports whether the relation exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.state[name]
	return ok
}

// Tables lists the relation names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedKeys(db.state)
}

// sortedKeys lists a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// PutBlob stores a payload in the content-addressed store and returns
// its handle, to be kept in a TBlob column. The handle carries one
// reference, the caller's: a row written with it takes a reference of
// its own, so the caller releases its one with ReleaseBlob once the row
// write returns, whether the write succeeded or not. Identical payloads
// share storage: a re-put only bumps the object's reference count. The
// chunk bytes are not fsynced here; the WAL's pre-sync hook syncs dirty
// blob segments before any record fsync, so the row that carries the
// handle cannot become durable ahead of the payload it references.
func (db *DB) PutBlob(data []byte) (blob.Handle, error) {
	return db.blobs.Put(data)
}

// GetBlob fetches a payload by handle. The zero handle returns
// blob.ErrNoBlob.
func (db *DB) GetBlob(h blob.Handle) ([]byte, error) {
	return db.blobs.Get(h)
}

// ReleaseBlob drops the caller's reference that PutBlob or
// PutBlobFromChunks returned. No row holds that reference, so it goes at
// once; a payload some row holds keeps the row's. It is never the way to
// let go of what a row held: the write that empties the cell does that.
// The zero handle returns blob.ErrNoBlob.
func (db *DB) ReleaseBlob(h blob.Handle) error {
	return db.blobs.Release(h)
}

// BlobManifest returns the ordered chunk digest list of the stored
// payload behind h — the sender side of digest replication.
func (db *DB) BlobManifest(h blob.Handle) ([]blob.Digest, error) {
	return db.blobs.Manifest(h)
}

// MissingBlobChunks reports which of the given chunk digests the local
// store lacks — the receiver-side manifest diff of digest replication.
func (db *DB) MissingBlobChunks(chunks []blob.Digest) []blob.Digest {
	return db.blobs.MissingChunks(chunks)
}

// GetBlobChunk reads one stored chunk's payload by digest, for shipping
// to a replicating peer.
func (db *DB) GetBlobChunk(cd blob.Digest) ([]byte, error) {
	return db.blobs.GetChunk(cd)
}

// PutBlobFromChunks materializes a replicated payload from its manifest
// plus the transferred chunks (locally held chunks are shared, not
// rewritten). The handle's reference and durability follow PutBlob: it
// is the caller's until ReleaseBlob, and the WAL pre-sync hook syncs
// blob segments before any row referencing the handle becomes durable.
func (db *DB) PutBlobFromChunks(d blob.Digest, length uint32, chunks []blob.Digest, data map[blob.Digest][]byte) (blob.Handle, error) {
	return db.blobs.PutFromChunks(d, length, chunks, data)
}

// BlobStats returns the blob store's counters and gauges (dedup hits,
// live/free bytes, compactions, ...) plus how many row-referenced digests
// are missing from the store.
func (db *DB) BlobStats() (blob.Stats, int) {
	db.mu.RLock()
	missing := len(db.blobMissing)
	db.mu.RUnlock()
	return db.blobs.Stats(), missing
}

// WALStats reports cumulative WAL appends and fsyncs (for the E4 group-
// commit ablation).
func (db *DB) WALStats() (appends, syncs int64) {
	return db.wal.stats()
}

// Checkpoint writes the current state as a snapshot and truncates the WAL.
// The snapshot goes through a temp file and atomic rename, so a crash
// mid-checkpoint recovers from the previous snapshot plus the intact WAL.
//
// A snapshot is snapshotHeader, then the WAL records (unframed) that
// rebuild the state: per table in name order, its creation carrying its
// next id, its rows in id order, then its indexes.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	var e wire.BodyEnc
	e.Fixed([]byte(snapshotHeader))
	for _, name := range sortedKeys(db.state) {
		tb := db.state[name]
		(&walRecord{Op: opCreateTable, Table: name, Schema: tb.schema, ID: tb.nextID}).AppendBody(&e)
		for _, id := range tb.sortedIDs() {
			(&walRecord{Op: opInsert, Table: name, ID: id, Vals: tb.rows[id]}).AppendBody(&e)
		}
		for _, col := range sortedKeys(tb.indexes) {
			(&walRecord{Op: opCreateIndex, Table: name, Col: col}).AppendBody(&e)
		}
	}
	// The snapshot's rows name blobs: their blocks reach the disk before
	// a snapshot that refers to them can.
	if err := db.blobs.Sync(); err != nil {
		return err
	}
	tmp := filepath.Join(db.dir, snapshotFile+".tmp")
	if err := writeSynced(tmp, e.Flatten()); err != nil {
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// The rename made the snapshot visible, but only in the in-memory
	// directory: fsync the directory before truncating the WAL, or a
	// power loss could forget the rename after the WAL is already gone —
	// losing every operation since the previous checkpoint.
	if err := syncDir(db.dir); err != nil {
		return err
	}
	// truncate fires the WAL's onSync hook: the snapshot now covers
	// every logged delete, so queued blob releases drain here too.
	return db.wal.truncate()
}

// writeSynced writes data to path through one handle and fsyncs it,
// returning the first error of the write, the sync and the close.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making recent renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// CompactBlobs flushes the WAL, so every release queued behind it
// drains, and forces a full segment compaction, returning the file bytes
// reclaimed. It recounts nothing: the counts are exact after every
// write, and a reference a caller holds from PutBlob survives it. It
// never rewrites a handle — digests are stable across moves — so no
// checkpoint is required and a crash mid-compaction at worst leaves
// duplicate blocks the next Open's recovery scan dedups. Day-to-day
// reclamation does not need this call: deletes feed the free lists and
// the background compactor directly.
func (db *DB) CompactBlobs() (reclaimed int64, err error) {
	if err := db.Flush(); err != nil {
		return 0, err
	}
	// The segment moves proceed without db.mu: readers keep reading
	// (digests never change), writers keep writing into other segments.
	return db.blobs.Compact()
}

// loadSnapshot restores state from the snapshot file, if present. Its
// records go through apply, so a snapshot is held to the checks a WAL
// record is; unlike a WAL record, one that fails them fails the Open.
func (db *DB) loadSnapshot() error {
	path := filepath.Join(db.dir, snapshotFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotHeader)) {
		return fmt.Errorf("store: %s is not a version-2 snapshot; this release does not read it and leaves it untouched", path)
	}
	for d := wire.NewDec(data[len(snapshotHeader):]); d.Len() > 0; {
		var rec walRecord
		err := rec.DecodeBody(d)
		if err == nil {
			err = db.apply(rec)
		}
		if err != nil {
			return fmt.Errorf("store: snapshot %s: %w", path, err)
		}
	}
	return nil
}
