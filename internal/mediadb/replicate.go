// Dataset export/adopt: the mediadb half of digest replication. A room
// owner exports the rows a document's components reference — handles
// only, never payload bytes — and a standby adopts them under the same
// ids, materializing each payload through a caller-supplied ensure hook
// (which, in the cluster, runs the manifest-diff chunk pull). Rows travel
// as the store keeps them, a table name beside a store.Row: what Fig. 7's
// catalog indirection makes of every type, so neither end spells a
// table's columns, and a payload cell is one that holds a blob.Handle.
// Adoption is idempotent: an unchanged row is skipped outright, so
// repeated syncs touch neither tables nor refcounts.
package mediadb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"mmconf/internal/blob"
	"mmconf/internal/document"
	"mmconf/internal/store"
)

// DatasetRow is one replicated row: its table, its id there, its cells.
type DatasetRow struct {
	Table string
	ID    uint64
	Row   store.Row
}

// Dataset is the replicable closure of one document: every media row its
// components present, in table then id order, and its own row last. The
// document row is keyed by FLD_DOCID, not by id — a standby that stored
// the document itself numbered it differently — so its ID is 0.
type Dataset struct {
	DocID string
	Rows  []DatasetRow
}

// Handles returns the distinct non-zero blob handles the dataset
// references — the set the sender must ship manifests for.
func (ds *Dataset) Handles() []blob.Handle {
	seen := make(map[blob.Digest]bool)
	var out []blob.Handle
	for _, r := range ds.Rows {
		for _, c := range r.Row {
			if h, ok := c.(blob.Handle); ok && !h.IsZero() && !seen[h.Digest] {
				seen[h.Digest] = true
				out = append(out, h)
			}
		}
	}
	return out
}

// ExportDataset collects the replicable closure of docID: for every
// presentation of every component the media row it references, then the
// document row. Payload bytes stay in the blob store — the export carries
// handles only, so its size is proportional to row count, not media
// volume.
func (m *MediaDB) ExportDataset(docID string) (*Dataset, error) {
	_, _, docRow, err := m.documentRow(docID)
	if err != nil {
		return nil, err
	}
	h, err := blobHandleAt(docRow, 2)
	if err != nil {
		return nil, err
	}
	data, err := m.db.GetBlob(h)
	if err != nil {
		return nil, err
	}
	doc, err := document.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	// One object can back several presentations (full + icon share a
	// row); collect each table's id set once, sorted so exports of the
	// same state are byte-identical (the cluster fingerprints them).
	want := map[string]map[uint64]bool{ImageTable: {}, AudioTable: {}, CmpTable: {}}
	for _, c := range doc.Components() {
		for _, p := range c.Presentations {
			if t := KindTable(p.Kind); t != "" && p.ObjectID != 0 {
				want[t][p.ObjectID] = true
			}
		}
	}
	ds := &Dataset{DocID: docID}
	for _, name := range []string{ImageTable, AudioTable, CmpTable} {
		tbl, err := m.db.Table(name)
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, 0, len(want[name]))
		for id := range want[name] {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			row, ok, err := tbl.Get(id)
			if err != nil {
				return nil, err
			}
			// A presentation may reference an object that is gone; there
			// is nothing to ship for it.
			if ok {
				ds.Rows = append(ds.Rows, DatasetRow{Table: name, ID: id, Row: row})
			}
		}
	}
	ds.Rows = append(ds.Rows, DatasetRow{Table: DocumentTable, Row: docRow})
	return ds, nil
}

// checkDataset refuses, before anything is written or pulled, a dataset
// this database cannot hold as sent. Rows arrive untyped off a node
// link: each must belong to a table replication owns, fit that table's
// schema cell for cell, and only the last may be a document row — the
// dataset's own.
func (m *MediaDB) checkDataset(ds *Dataset) error {
	for i, r := range ds.Rows {
		switch r.Table {
		case ImageTable, AudioTable, CmpTable:
		case DocumentTable:
			if i != len(ds.Rows)-1 {
				return fmt.Errorf("mediadb: dataset %q: document row is not last", ds.DocID)
			}
		default:
			return fmt.Errorf("mediadb: dataset %q: table %q is not replicated", ds.DocID, r.Table)
		}
		tbl, err := m.db.Table(r.Table)
		if err != nil {
			return err
		}
		if err := tbl.Check(r.Row); err != nil {
			return fmt.Errorf("mediadb: dataset %q: %s row %d: %w", ds.DocID, r.Table, r.ID, err)
		}
		if r.Table == DocumentTable && r.Row[0] != ds.DocID {
			return fmt.Errorf("mediadb: dataset %q carries the row of document %q", ds.DocID, r.Row[0])
		}
	}
	return nil
}

// AdoptDataset merges an exported dataset into this database, media rows
// under the sender's row ids and the document row — last, so that once
// it lands a takeover can rebuild the room and every object reference
// already resolves — under its FLD_DOCID. ensure is called once per blob
// cell being written whose handle differs from what the cell held before
// (for the cluster, ensure runs PutBlobFromChunks, which ingests missing
// payloads and reference-bumps present ones — either way the new cell
// owns exactly one reference). Unchanged rows are skipped entirely;
// changed rows release their displaced handles. It returns how many rows
// were inserted or updated.
func (m *MediaDB) AdoptDataset(ds *Dataset, ensure func(h blob.Handle) error) (int, error) {
	if err := m.checkDataset(ds); err != nil {
		return 0, err
	}
	adopted := 0
	for _, r := range ds.Rows {
		tbl, err := m.db.Table(r.Table)
		if err != nil {
			return adopted, err
		}
		id, old := r.ID, store.Row(nil)
		if r.Table == DocumentTable {
			if _, id, old, err = m.documentRow(ds.DocID); errors.Is(err, ErrNoObject) {
				err = nil
			}
		} else {
			old, _, err = tbl.Get(id)
		}
		if err != nil {
			return adopted, err
		}
		if old != nil && slices.EqualFunc(old, r.Row, cellsEqual) {
			continue
		}
		if err := m.adoptRow(tbl, id, old, r.Row, ensure); err != nil {
			return adopted, err
		}
		adopted++
	}
	return adopted, nil
}

// adoptRow writes one row: an insert when old is nil — under id, or for
// the document table under an id of this store's choosing — otherwise an
// update of row id. Each blob cell whose handle the old row did not
// already hold in that column is ensured first, and released again if
// the write fails.
func (m *MediaDB) adoptRow(tbl *store.Table, id uint64, old, row store.Row, ensure func(blob.Handle) error) error {
	var ensured []blob.Handle
	unwind := func(err error) error {
		for _, h := range ensured {
			m.db.ReleaseBlob(h)
		}
		return err
	}
	for i, c := range row {
		h, ok := c.(blob.Handle)
		if !ok || h.IsZero() || (old != nil && old[i] == c) {
			continue // not a payload, NULL, or the cell already owns it
		}
		if err := ensure(h); err != nil {
			return unwind(err)
		}
		ensured = append(ensured, h)
	}
	if old == nil {
		var err error
		if tbl.Name() == DocumentTable {
			_, err = tbl.Insert(row)
		} else {
			err = tbl.InsertWithID(id, row)
		}
		if err != nil {
			return unwind(err)
		}
		return nil
	}
	// Swap-and-read-old atomically (PutDocument's discipline), then
	// release only the handles the update actually displaced; a cell
	// keeping its digest carries its reference through the update.
	displaced, err := tbl.UpdateReturningOld(id, row)
	if err != nil {
		return unwind(err)
	}
	return m.releaseRowBlobs(displaced, row)
}

// cellsEqual compares two cells of one column; []byte is the one cell
// type == cannot.
func cellsEqual(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	}
	return a == b
}
