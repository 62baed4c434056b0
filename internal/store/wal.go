package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"mmconf/internal/wire"
)

// opKind enumerates the logical operations the write-ahead log records.
type opKind uint8

const (
	opCreateTable opKind = iota
	opInsert
	opUpdate
	opDelete
	opCreateIndex
	opDropTable
)

// walRecord is one logged operation. Every mutation of the relational
// state is expressed as exactly one record, so replay is a pure fold.
type walRecord struct {
	Op     opKind
	Table  string
	Schema []Column // opCreateTable
	ID     uint64   // opInsert (assigned id), opUpdate, opDelete; a snapshot's opCreateTable: next id
	Vals   Row      // opInsert, opUpdate
	Col    string   // opCreateIndex
}

// AppendBody writes the record: every field in declaration order, an
// unused one as its empty form.
func (r *walRecord) AppendBody(e *wire.BodyEnc) {
	e.Byte(byte(r.Op))
	e.String(r.Table)
	appendSchema(e, r.Schema)
	e.Uvarint(r.ID)
	AppendRow(e, r.Vals)
	e.String(r.Col)
}

// DecodeBody reads a record AppendBody wrote. Whether it applies is
// DB.validateLocked's to say.
func (r *walRecord) DecodeBody(d *wire.Dec) error {
	r.Op = opKind(d.Byte())
	r.Table = d.String()
	r.Schema = decodeSchema(d)
	r.ID = d.Uvarint()
	var err error
	if r.Vals, err = DecodeRow(d); err != nil {
		return err
	}
	r.Col = d.String()
	return d.Err()
}

func appendSchema(e *wire.BodyEnc, schema []Column) {
	e.Uvarint(uint64(len(schema)))
	for _, c := range schema {
		e.String(c.Name)
		e.Byte(byte(c.Type))
	}
}

func decodeSchema(d *wire.Dec) []Column {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil
	}
	schema := make([]Column, 0, min(n, 64))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		schema = append(schema, Column{Name: d.String(), Type: ColumnType(d.Byte())})
	}
	return schema
}

// frameHeader is the size of a record's frame header: body length and
// body CRC-32, both little-endian uint32.
const frameHeader = 8

// framedRecord is a record behind room for its frame header, so append
// encodes both into one buffer and writes it with one write(2).
type framedRecord walRecord

func (r *framedRecord) AppendBody(e *wire.BodyEnc) {
	var hdr [frameHeader]byte
	e.Fixed(hdr[:])
	(*walRecord)(r).AppendBody(e)
}

// SyncMode controls when the WAL is flushed to stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs after every record — maximal durability,
	// one fsync per operation.
	SyncAlways SyncMode = iota
	// SyncGroup batches records and fsyncs when the batch reaches
	// defaultGroupSize records or an explicit Flush — the group-commit
	// mode the E4 ablation measures.
	SyncGroup
	// SyncNever leaves flushing to the OS — fastest, durable only up to
	// the last checkpoint. Appropriate for caches and test fixtures.
	SyncNever
)

// walHeader opens every log: the file's magic and format version. Format
// 1 was the gob-encoded log, which had no header; Open refuses it.
const walHeader = "mmconf wal 2\n"

// wal is an append-only log of walRecords behind walHeader, each framed
//
//	length uint32 | crc uint32 | walRecord body
type wal struct {
	mu        sync.Mutex
	f         *os.File
	mode      SyncMode
	groupSize int
	pending   int  // records since last fsync (SyncGroup)
	dirty     bool // bytes written since the last fsync (any mode)
	appends   int64
	syncs     int64
	// onSync, if set, runs after every successful fsync (and after
	// truncate), while the log is clean. The store layer uses it to
	// drain blob releases that were waiting on record durability. It
	// must not call back into the wal.
	onSync func()
	// onBeforeSync, if set, runs immediately before every fsync; an
	// error aborts the sync (and the append that triggered it). The
	// store layer uses it to fsync dirty blob segments first, so a
	// record referencing a blob handle can never become durable ahead
	// of the payload bytes it points at. Must not call back into the
	// wal.
	onBeforeSync func() error
}

// defaultGroupSize is SyncGroup's batch: a group fsync every 64
// records. In-package tests set wal.groupSize for another batch.
const defaultGroupSize = 64

// openWAL opens (or creates) the log at path and folds every record it
// holds into apply (see replay), leaving it ready for appends.
func openWAL(path string, mode SyncMode, apply func(walRecord) error) (w *wal, skipped int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open wal %s: %w", path, err)
	}
	if skipped, err = replay(f, path, apply); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &wal{f: f, mode: mode, groupSize: defaultGroupSize}, skipped, nil
}

// append logs one record, honoring the sync mode.
func (w *wal) append(rec walRecord) error {
	buf := wire.MarshalBody((*framedRecord)(&rec))
	body := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))

	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	w.appends++
	w.dirty = true
	switch w.mode {
	case SyncAlways:
		if err := w.syncLocked(); err != nil {
			return err
		}
		w.notifySynced()
	case SyncGroup:
		w.pending++
		if w.pending >= w.groupSize {
			w.pending = 0
			if err := w.syncLocked(); err != nil {
				return err
			}
			w.notifySynced()
		}
	}
	return nil
}

// syncLocked runs the pre-sync hook, then fsyncs the log. Caller holds
// w.mu with dirty bytes pending. On a hook failure the fsync does not
// happen (and is not counted): the records stay pending, exactly as
// un-durable as the blob bytes the hook failed to write.
func (w *wal) syncLocked() error {
	if w.onBeforeSync != nil {
		if err := w.onBeforeSync(); err != nil {
			return fmt.Errorf("store: wal pre-sync: %w", err)
		}
	}
	w.syncs++
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	w.dirty = false
	return nil
}

// notifySynced fires the onSync hook. Caller holds w.mu with dirty false.
func (w *wal) notifySynced() {
	if w.onSync != nil {
		w.onSync()
	}
}

// isClean reports whether every appended record has been fsynced.
func (w *wal) isClean() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dirty
}

// flush forces any pending records to disk. With nothing written since
// the last fsync it is free — no syscall, no syncs increment — so the
// WALStats the E4 ablation reads count only real flushes.
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.dirty {
		return nil
	}
	w.pending = 0
	if err := w.syncLocked(); err != nil {
		return err
	}
	w.notifySynced()
	return nil
}

// truncate empties the log after a checkpoint, keeping its header.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(int64(len(walHeader))); err != nil {
		return fmt.Errorf("store: wal truncate: %w", err)
	}
	w.pending = 0
	w.dirty = false
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.notifySynced()
	return nil
}

func (w *wal) close() error {
	return w.f.Close()
}

// stats returns cumulative append and fsync counters.
func (w *wal) stats() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

// replay checks the header of the log f (at path) and folds every intact
// record after it into apply. A log shorter than its header whose bytes
// begin it — empty, or torn while the header was written — is a fresh
// log and gets the header. Any other header is a format this release
// does not read: replay refuses it and leaves the file as it is.
//
// Replay stops at the first torn record (the tail written during a
// crash) and truncates it away. A record whose CRC holds but which does
// not decode or does not apply is skipped, not fatal: it is either a
// poisoned record from before validation-first logging, or a record the
// snapshot already contains (crash between checkpoint rename and WAL
// truncation) — refusing it would brick every future Open over state
// that is otherwise sound. skipped reports how many records were passed
// over.
func replay(f *os.File, path string, apply func(walRecord) error) (skipped int, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("store: read wal %s: %w", path, err)
	}
	head := data[:min(len(data), len(walHeader))]
	if string(head) != walHeader[:len(head)] {
		return 0, fmt.Errorf("store: %s is not a version-2 log (a gob-era WAL?); this release does not read it and leaves it untouched", path)
	}
	if len(head) < len(walHeader) {
		if err := f.Truncate(0); err != nil {
			return 0, fmt.Errorf("store: wal truncate %s: %w", path, err)
		}
		if _, err := f.Write([]byte(walHeader)); err != nil {
			return 0, fmt.Errorf("store: wal write %s: %w", path, err)
		}
		return 0, nil
	}
	off := len(walHeader)
	for len(data)-off >= frameHeader {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if len(data)-off-frameHeader < length {
			break // torn: the body never made it to disk
		}
		body := data[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		// Cells alias data; the table copies what it keeps (ownRow).
		var rec walRecord
		if wire.DecodeBodyBytes(body, &rec) != nil || apply(rec) != nil {
			skipped++
		}
		off += frameHeader + length
	}
	if off < len(data) {
		if err := f.Truncate(int64(off)); err != nil {
			return skipped, fmt.Errorf("store: wal truncate torn tail: %w", err)
		}
	}
	return skipped, nil
}
