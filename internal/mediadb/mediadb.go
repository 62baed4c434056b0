// Package mediadb maps multimedia objects to the database, implementing
// the schema of Fig. 7 of the paper: a main catalog relation
// (MULTIMEDIA_OBJECTS_TABLE) lists every supported multimedia type
// together with a reference to the per-type object table that holds the
// objects themselves (IMAGE_OBJECTS_TABLE, AUDIO_OBJECTS_TABLE,
// CMP_OBJECTS_TABLE, ...). Payloads live in BLOB columns. The indirection
// is what lets new data types be added as the system evolves without
// touching existing tables — RegisterType is exactly that extension point.
//
// Documents (component hierarchy + CP-network) are stored in their own
// DOCUMENT_OBJECTS_TABLE as serialized blobs, mirroring §5.1.
package mediadb

import (
	"errors"
	"fmt"

	"mmconf/internal/blob"
	"mmconf/internal/document"
	"mmconf/internal/store"
)

// Catalog and object-table names (Fig. 7).
const (
	CatalogTable  = "MULTIMEDIA_OBJECTS_TABLE"
	ImageTable    = "IMAGE_OBJECTS_TABLE"
	AudioTable    = "AUDIO_OBJECTS_TABLE"
	CmpTable      = "CMP_OBJECTS_TABLE"
	DocumentTable = "DOCUMENT_OBJECTS_TABLE"
)

// KindTable maps a presentation kind to the object table its ObjectID
// indexes (the inverse of the assignment workload.Populate performs):
// ids are per table, so an ObjectID means nothing without this. Kinds
// with no stored object (hidden, text, composite, ...) map to "".
func KindTable(k document.MediaKind) string {
	switch k {
	case document.KindImage, document.KindSegmentedImage, document.KindIcon:
		return ImageTable
	case document.KindImageLowRes, document.KindImageMedRes, document.KindImageHighRes:
		return CmpTable
	case document.KindAudio, document.KindAudioTranscript:
		return AudioTable
	}
	return ""
}

// ErrNoObject is wrapped by every "no image/audio/compressed object N"
// and "no document D" error, so callers can tell a missing row from a
// store failure.
var ErrNoObject = errors.New("no such object")

// TypeInfo is one catalog row: a supported multimedia type and the object
// table that stores it.
type TypeInfo struct {
	Name        string // e.g. "Image"
	MIME        string // e.g. "image/x-phantom"
	AccessType  string // e.g. "read-write"
	ObjectTable string // e.g. IMAGE_OBJECTS_TABLE
	Description string
}

// MediaDB wraps a store.DB with the multimedia schema.
type MediaDB struct {
	db *store.DB
}

// Open initializes (idempotently) the Fig. 7 schema inside db.
func Open(db *store.DB) (*MediaDB, error) {
	m := &MediaDB{db: db}
	steps := []struct {
		table  string
		schema []store.Column
		index  string
	}{
		{CatalogTable, []store.Column{
			{Name: "FLD_NAME", Type: store.TString},
			{Name: "FLD_MIME", Type: store.TString},
			{Name: "FLD_ACCESSTYPE", Type: store.TString},
			{Name: "OBJECTTABLES", Type: store.TString},
			{Name: "DESCRIPTION", Type: store.TString},
		}, "FLD_NAME"},
		{ImageTable, []store.Column{
			{Name: "FLD_QUALITY", Type: store.TInt},  // resolution/quality tag
			{Name: "FLD_TEXTS", Type: store.TString}, // text annotations
			{Name: "FLD_CM", Type: store.TFloat},     // physical scale, cm/pixel
			{Name: "FLD_DATA", Type: store.TBlob},    // raster payload
		}, ""},
		{AudioTable, []store.Column{
			{Name: "FLD_FILENAME", Type: store.TString},
			{Name: "FLD_SECTORS", Type: store.TBytes}, // segmentation metadata
			{Name: "FLD_DATA", Type: store.TBlob},     // waveform payload
		}, ""},
		{CmpTable, []store.Column{
			{Name: "FLD_FILENAME", Type: store.TString},
			{Name: "FLD_FILESIZE", Type: store.TInt},
			{Name: "FLD_CURRENTPOSITION", Type: store.TInt},
			{Name: "FLD_HEADER", Type: store.TBlob}, // layer directory
			{Name: "FLD_DATA", Type: store.TBlob},   // layered bitstream
		}, ""},
		{DocumentTable, []store.Column{
			{Name: "FLD_DOCID", Type: store.TString},
			{Name: "FLD_TITLE", Type: store.TString},
			{Name: "FLD_DATA", Type: store.TBlob},
		}, "FLD_DOCID"},
	}
	for _, s := range steps {
		if db.HasTable(s.table) {
			continue
		}
		tbl, err := db.CreateTable(s.table, s.schema)
		if err != nil {
			return nil, fmt.Errorf("mediadb: creating %s: %w", s.table, err)
		}
		if s.index != "" {
			if err := tbl.CreateIndex(s.index); err != nil {
				return nil, fmt.Errorf("mediadb: indexing %s: %w", s.table, err)
			}
		}
	}
	// Seed the catalog with the built-in types.
	builtins := []TypeInfo{
		{"Image", "image/x-raster", "read-write", ImageTable, "flat and segmented raster images"},
		{"Audio", "audio/x-wave", "read-write", AudioTable, "voice fragments and other 1-D signals"},
		{"Compressed", "application/x-mmlayers", "read-write", CmpTable, "multi-layer compressed image streams"},
		{"Document", "application/x-mmdoc", "read-write", DocumentTable, "multimedia documents with CP-networks"},
	}
	for _, ti := range builtins {
		if _, err := m.TypeByName(ti.Name); err == nil {
			continue
		}
		if err := m.RegisterType(ti); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// DB exposes the underlying store for administrative tooling.
func (m *MediaDB) DB() *store.DB { return m.db }

// blobHandleAt extracts the blob handle in column i of row, failing
// loudly (instead of panicking) on a malformed row — e.g. a cell decoded
// from a damaged snapshot.
func blobHandleAt(row store.Row, i int) (blob.Handle, error) {
	if i >= len(row) {
		return blob.Handle{}, fmt.Errorf("mediadb: row has %d columns, no blob at %d", len(row), i)
	}
	h, ok := row[i].(blob.Handle)
	if !ok {
		return blob.Handle{}, fmt.Errorf("mediadb: column %d holds %T, not a blob handle", i, row[i])
	}
	return h, nil
}

// releaseRowBlobs drops the references held by the blob cells of a row
// that was just deleted or overwritten: every cell that holds a handle,
// whatever its column. A zero handle (cell never populated) is skipped,
// and so is one the same cell of keep still holds — keep is the row that
// replaced this one where a kept payload carries its reference over, nil
// otherwise. The first release error is returned so callers can surface
// refcount drift, though the row change itself stands.
func (m *MediaDB) releaseRowBlobs(row, keep store.Row) error {
	var first error
	for i, c := range row {
		h, ok := c.(blob.Handle)
		if !ok || h.IsZero() || (i < len(keep) && keep[i] == c) {
			continue
		}
		if err := m.db.ReleaseBlob(h); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RegisterType adds a new multimedia type to the catalog, creating its
// object table if tables' schema is provided elsewhere by the caller. The
// named object table must already exist.
func (m *MediaDB) RegisterType(ti TypeInfo) error {
	if ti.Name == "" || ti.ObjectTable == "" {
		return fmt.Errorf("mediadb: type needs a name and an object table")
	}
	if !m.db.HasTable(ti.ObjectTable) {
		return fmt.Errorf("mediadb: object table %q does not exist", ti.ObjectTable)
	}
	if _, err := m.TypeByName(ti.Name); err == nil {
		return fmt.Errorf("mediadb: type %q already registered", ti.Name)
	}
	cat, err := m.db.Table(CatalogTable)
	if err != nil {
		return err
	}
	_, err = cat.Insert(store.Row{ti.Name, ti.MIME, ti.AccessType, ti.ObjectTable, ti.Description})
	return err
}

// TypeByName looks a type up in the catalog.
func (m *MediaDB) TypeByName(name string) (TypeInfo, error) {
	cat, err := m.db.Table(CatalogTable)
	if err != nil {
		return TypeInfo{}, err
	}
	ids, err := cat.LookupString("FLD_NAME", name)
	if err != nil {
		return TypeInfo{}, err
	}
	if len(ids) == 0 {
		return TypeInfo{}, fmt.Errorf("mediadb: no type %q", name)
	}
	row, ok, err := cat.Get(ids[0])
	if err != nil || !ok {
		return TypeInfo{}, fmt.Errorf("mediadb: catalog row vanished: %v", err)
	}
	return TypeInfo{
		Name:        row[0].(string),
		MIME:        row[1].(string),
		AccessType:  row[2].(string),
		ObjectTable: row[3].(string),
		Description: row[4].(string),
	}, nil
}

// Types lists every registered type.
func (m *MediaDB) Types() ([]TypeInfo, error) {
	cat, err := m.db.Table(CatalogTable)
	if err != nil {
		return nil, err
	}
	var out []TypeInfo
	err = cat.Scan(func(id uint64, row store.Row) bool {
		out = append(out, TypeInfo{
			Name:        row[0].(string),
			MIME:        row[1].(string),
			AccessType:  row[2].(string),
			ObjectTable: row[3].(string),
			Description: row[4].(string),
		})
		return true
	})
	return out, err
}

// ImageObject is one row of IMAGE_OBJECTS_TABLE with its payload resolved.
// Digest is the payload's content address in the blob store.
type ImageObject struct {
	ID      uint64
	Quality int64
	Texts   string
	CM      float64
	Digest  blob.Digest
	Data    []byte
}

// PutImage stores an image object and returns its id. An identical
// payload already in the store is shared, not duplicated.
func (m *MediaDB) PutImage(quality int64, texts string, cm float64, data []byte) (uint64, error) {
	h, err := m.db.PutBlob(data)
	if err != nil {
		return 0, err
	}
	tbl, err := m.db.Table(ImageTable)
	if err != nil {
		m.db.ReleaseBlob(h)
		return 0, err
	}
	id, err := tbl.Insert(store.Row{quality, texts, cm, h})
	if err != nil {
		m.db.ReleaseBlob(h)
		return 0, err
	}
	return id, nil
}

// ImageRow is one IMAGE_OBJECTS_TABLE row by reference.
type ImageRow struct {
	ID      uint64
	Quality int64
	Texts   string
	CM      float64
	Data    blob.Handle
}

// GetImageRow reads an image object's row by reference: the mutable
// columns, and the handle of the immutable raster for the caller to
// resolve. Callers that cache payloads by digest read the row on every
// request and the payload only on a miss.
func (m *MediaDB) GetImageRow(id uint64) (ImageRow, error) {
	row, err := m.objectRow(ImageTable, "image", id)
	if err != nil {
		return ImageRow{}, err
	}
	h, err := blobHandleAt(row, 3)
	if err != nil {
		return ImageRow{}, err
	}
	return ImageRow{ID: id, Quality: row[0].(int64), Texts: row[1].(string), CM: row[2].(float64), Data: h}, nil
}

// GetImage fetches an image object by id: row, then payload.
func (m *MediaDB) GetImage(id uint64) (ImageObject, error) {
	r, err := m.GetImageRow(id)
	if err != nil {
		return ImageObject{}, err
	}
	data, err := m.db.GetBlob(r.Data)
	if err != nil {
		return ImageObject{}, err
	}
	return ImageObject{ID: id, Quality: r.Quality, Texts: r.Texts, CM: r.CM, Digest: r.Data.Digest, Data: data}, nil
}

// UpdateImageTexts replaces the text annotations of an image object (used
// when a partner writes on an image in a shared room).
func (m *MediaDB) UpdateImageTexts(id uint64, texts string) error {
	tbl, err := m.db.Table(ImageTable)
	if err != nil {
		return err
	}
	row, ok, err := tbl.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("mediadb: no image object %d: %w", id, ErrNoObject)
	}
	row[1] = texts
	return tbl.Update(id, row)
}

// AudioObject is one row of AUDIO_OBJECTS_TABLE with its payload resolved.
// Digest is the payload's content address in the blob store.
type AudioObject struct {
	ID       uint64
	Filename string
	Sectors  []byte
	Digest   blob.Digest
	Data     []byte
}

// PutAudio stores an audio object.
func (m *MediaDB) PutAudio(filename string, sectors, data []byte) (uint64, error) {
	h, err := m.db.PutBlob(data)
	if err != nil {
		return 0, err
	}
	tbl, err := m.db.Table(AudioTable)
	if err != nil {
		m.db.ReleaseBlob(h)
		return 0, err
	}
	id, err := tbl.Insert(store.Row{filename, sectors, h})
	if err != nil {
		m.db.ReleaseBlob(h)
		return 0, err
	}
	return id, nil
}

// AudioRow is one AUDIO_OBJECTS_TABLE row by reference.
type AudioRow struct {
	ID       uint64
	Filename string
	Sectors  []byte
	Data     blob.Handle
}

// GetAudioRow reads an audio object's row by reference (see
// GetImageRow).
func (m *MediaDB) GetAudioRow(id uint64) (AudioRow, error) {
	row, err := m.objectRow(AudioTable, "audio", id)
	if err != nil {
		return AudioRow{}, err
	}
	h, err := blobHandleAt(row, 2)
	if err != nil {
		return AudioRow{}, err
	}
	return AudioRow{ID: id, Filename: row[0].(string), Sectors: row[1].([]byte), Data: h}, nil
}

// GetAudio fetches an audio object by id: row, then payload.
func (m *MediaDB) GetAudio(id uint64) (AudioObject, error) {
	r, err := m.GetAudioRow(id)
	if err != nil {
		return AudioObject{}, err
	}
	data, err := m.db.GetBlob(r.Data)
	if err != nil {
		return AudioObject{}, err
	}
	return AudioObject{ID: id, Filename: r.Filename, Sectors: r.Sectors, Digest: r.Data.Digest, Data: data}, nil
}

// CmpObject is one row of CMP_OBJECTS_TABLE: a multi-layer compressed
// image stream with its layer directory (header) and bitstream.
type CmpObject struct {
	ID       uint64
	Filename string
	FileSize int64
	Position int64
	// HeaderDigest and DataDigest are the content addresses of the two
	// payloads in the blob store.
	HeaderDigest blob.Digest
	DataDigest   blob.Digest
	Header       []byte
	Data         []byte
}

// PutCmp stores a compressed stream.
func (m *MediaDB) PutCmp(filename string, header, data []byte) (uint64, error) {
	hh, err := m.db.PutBlob(header)
	if err != nil {
		return 0, err
	}
	dh, err := m.db.PutBlob(data)
	if err != nil {
		m.db.ReleaseBlob(hh)
		return 0, err
	}
	unwind := func() {
		m.db.ReleaseBlob(hh)
		m.db.ReleaseBlob(dh)
	}
	tbl, err := m.db.Table(CmpTable)
	if err != nil {
		unwind()
		return 0, err
	}
	id, err := tbl.Insert(store.Row{filename, int64(len(data)), int64(0), hh, dh})
	if err != nil {
		unwind()
		return 0, err
	}
	return id, nil
}

// CmpRow is one CMP_OBJECTS_TABLE row by reference.
type CmpRow struct {
	ID       uint64
	Filename string
	FileSize int64
	Position int64
	Header   blob.Handle
	Data     blob.Handle
}

// GetCmpRow reads a compressed stream's row by reference (see
// GetImageRow): the layer directory and the bitstream are two payloads.
func (m *MediaDB) GetCmpRow(id uint64) (CmpRow, error) {
	row, err := m.objectRow(CmpTable, "compressed", id)
	if err != nil {
		return CmpRow{}, err
	}
	hh, err := blobHandleAt(row, 3)
	if err != nil {
		return CmpRow{}, err
	}
	dh, err := blobHandleAt(row, 4)
	if err != nil {
		return CmpRow{}, err
	}
	return CmpRow{ID: id, Filename: row[0].(string), FileSize: row[1].(int64), Position: row[2].(int64), Header: hh, Data: dh}, nil
}

// GetCmp fetches a compressed stream by id: row, then both payloads.
func (m *MediaDB) GetCmp(id uint64) (CmpObject, error) {
	r, err := m.GetCmpRow(id)
	if err != nil {
		return CmpObject{}, err
	}
	header, err := m.db.GetBlob(r.Header)
	if err != nil {
		return CmpObject{}, err
	}
	data, err := m.db.GetBlob(r.Data)
	if err != nil {
		return CmpObject{}, err
	}
	return CmpObject{
		ID:           id,
		Filename:     r.Filename,
		FileSize:     r.FileSize,
		Position:     r.Position,
		HeaderDigest: r.Header.Digest,
		DataDigest:   r.Data.Digest,
		Header:       header,
		Data:         data,
	}, nil
}

// objectRow reads row id of an object table; kind names the object in
// the ErrNoObject error.
func (m *MediaDB) objectRow(table, kind string, id uint64) (store.Row, error) {
	tbl, err := m.db.Table(table)
	if err != nil {
		return nil, err
	}
	row, ok, err := tbl.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("mediadb: no %s object %d: %w", kind, id, ErrNoObject)
	}
	return row, nil
}

// deleteRow deletes one row of tableName and releases the blob handles
// it held. The release happens after the delete is logged, and the blob
// store defers the actual free until that record is durable, so a crash
// can never free a payload a surviving row needs.
func (m *MediaDB) deleteRow(tableName string, id uint64) error {
	tbl, err := m.db.Table(tableName)
	if err != nil {
		return err
	}
	// Delete-and-read-old is one critical section: a racing replacement
	// of the same row either happens before (we release its handle) or
	// fails after (row gone), so no handle is ever released twice.
	row, err := tbl.DeleteReturningOld(id)
	if err != nil {
		return err
	}
	return m.releaseRowBlobs(row, nil)
}

// DeleteImage removes an image object's row and drops its payload
// reference; unshared payload bytes become reusable free space at once.
func (m *MediaDB) DeleteImage(id uint64) error {
	return m.deleteRow(ImageTable, id)
}

// DeleteAudio removes an audio object's row and its payload reference.
func (m *MediaDB) DeleteAudio(id uint64) error {
	return m.deleteRow(AudioTable, id)
}

// DeleteCmp removes a compressed stream's row and both payload
// references (header and bitstream).
func (m *MediaDB) DeleteCmp(id uint64) error {
	return m.deleteRow(CmpTable, id)
}

// documentRow finds docID's row of DOCUMENT_OBJECTS_TABLE, which is keyed
// by FLD_DOCID: the row's id in the table and its cells. A document that
// is not stored is an ErrNoObject error; the table comes back with it,
// for the callers that then insert.
func (m *MediaDB) documentRow(docID string) (*store.Table, uint64, store.Row, error) {
	tbl, err := m.db.Table(DocumentTable)
	if err != nil {
		return nil, 0, nil, err
	}
	ids, err := tbl.LookupString("FLD_DOCID", docID)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(ids) == 0 {
		return tbl, 0, nil, fmt.Errorf("mediadb: no document %q: %w", docID, ErrNoObject)
	}
	row, ok, err := tbl.Get(ids[0])
	if err != nil || !ok {
		return nil, 0, nil, fmt.Errorf("mediadb: document row vanished: %v", err)
	}
	return tbl, ids[0], row, nil
}

// DeleteDocument removes a stored document by document id, dropping its
// payload reference.
func (m *MediaDB) DeleteDocument(docID string) error {
	_, id, _, err := m.documentRow(docID)
	if err != nil {
		return err
	}
	return m.deleteRow(DocumentTable, id)
}

// PutDocument stores (or replaces) a multimedia document. Replacing a
// document releases the previous payload's reference — repeated saves of
// an evolving document no longer accumulate dead blob versions — and
// saving an unchanged document dedups to a refcount bump and release.
func (m *MediaDB) PutDocument(d *document.Document) error {
	data, err := d.MarshalBinary()
	if err != nil {
		return err
	}
	h, err := m.db.PutBlob(data)
	if err != nil {
		return err
	}
	tbl, id, old, err := m.documentRow(d.ID)
	if err != nil && !errors.Is(err, ErrNoObject) {
		m.db.ReleaseBlob(h)
		return err
	}
	row := store.Row{d.ID, d.Title, h}
	if old != nil {
		// Swap-and-read-old atomically: two concurrent saves of the same
		// docID each see a distinct predecessor row, so every displaced
		// handle is released exactly once (a Get-then-Update pair would
		// let both racers release the same old handle, corrupting the
		// refcount of a possibly dedup-shared payload).
		old, err = tbl.UpdateReturningOld(id, row)
		if err != nil {
			m.db.ReleaseBlob(h)
			return err
		}
		return m.releaseRowBlobs(old, nil)
	}
	if _, err := tbl.Insert(row); err != nil {
		m.db.ReleaseBlob(h)
		return err
	}
	return nil
}

// GetDocument fetches a document by its document id.
func (m *MediaDB) GetDocument(docID string) (*document.Document, error) {
	_, _, row, err := m.documentRow(docID)
	if err != nil {
		return nil, err
	}
	h, err := blobHandleAt(row, 2)
	if err != nil {
		return nil, err
	}
	data, err := m.db.GetBlob(h)
	if err != nil {
		return nil, err
	}
	return document.Unmarshal(data)
}

// ListDocuments returns the (id, title) pairs of every stored document.
func (m *MediaDB) ListDocuments() (ids, titles []string, err error) {
	tbl, err := m.db.Table(DocumentTable)
	if err != nil {
		return nil, nil, err
	}
	err = tbl.Scan(func(id uint64, row store.Row) bool {
		ids = append(ids, row[0].(string))
		titles = append(titles, row[1].(string))
		return true
	})
	return ids, titles, err
}
