// Dataset export/adopt: the mediadb half of digest replication. A room
// owner exports the rows a document's components reference — handles
// only, never payload bytes — and a standby adopts them under the same
// ids, materializing each payload through a caller-supplied ensure hook
// (which, in the cluster, runs the manifest-diff chunk pull). Adoption
// is idempotent: an unchanged row is skipped outright, so repeated syncs
// touch neither tables nor refcounts.
package mediadb

import (
	"errors"
	"fmt"
	"slices"

	"mmconf/internal/blob"
	"mmconf/internal/document"
	"mmconf/internal/store"
)

// ImageRow is one IMAGE_OBJECTS_TABLE row by reference.
type ImageRow struct {
	ID      uint64
	Quality int64
	Texts   string
	CM      float64
	Data    blob.Handle
}

// AudioRow is one AUDIO_OBJECTS_TABLE row by reference.
type AudioRow struct {
	ID       uint64
	Filename string
	Sectors  []byte
	Data     blob.Handle
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

// Dataset is the replicable closure of one document: its own row plus
// every media row its components present, all payloads by handle.
type Dataset struct {
	DocID   string
	Title   string
	DocBlob blob.Handle
	Images  []ImageRow
	Audios  []AudioRow
	Cmps    []CmpRow
}

// Handles returns the distinct non-zero blob handles the dataset
// references — the set the sender must ship manifests for.
func (ds *Dataset) Handles() []blob.Handle {
	seen := make(map[blob.Digest]bool)
	var out []blob.Handle
	add := func(h blob.Handle) {
		if h.IsZero() || seen[h.Digest] {
			return
		}
		seen[h.Digest] = true
		out = append(out, h)
	}
	add(ds.DocBlob)
	for _, r := range ds.Images {
		add(r.Data)
	}
	for _, r := range ds.Audios {
		add(r.Data)
	}
	for _, r := range ds.Cmps {
		add(r.Header)
		add(r.Data)
	}
	return out
}

// kindTable maps a presentation kind to the object table its ObjectID
// indexes (the inverse of the assignment workload.Populate performs).
// Kinds with no stored object (hidden, text, composite, ...) map to "".
func kindTable(k document.MediaKind) string {
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

// ExportDataset collects the replicable closure of docID: the document
// row and, for every presentation of every component, the media row it
// references. Payload bytes stay in the blob store — the export carries
// handles only, so its size is proportional to row count, not media
// volume.
func (m *MediaDB) ExportDataset(docID string) (*Dataset, error) {
	docs, err := m.db.Table(DocumentTable)
	if err != nil {
		return nil, err
	}
	ids, err := docs.LookupString("FLD_DOCID", docID)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("mediadb: no document %q", docID)
	}
	row, ok, err := docs.Get(ids[0])
	if err != nil || !ok {
		return nil, fmt.Errorf("mediadb: document row vanished: %v", err)
	}
	h, err := blobHandleAt(row, 2)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{DocID: docID, Title: row[1].(string), DocBlob: h}

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
			if t := kindTable(p.Kind); t != "" && p.ObjectID != 0 {
				want[t][p.ObjectID] = true
			}
		}
	}
	sorted := func(set map[uint64]bool) []uint64 {
		ids := make([]uint64, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	// A presentation may reference an object that is gone; there is
	// nothing to ship for it.
	for _, id := range sorted(want[ImageTable]) {
		r, err := m.GetImageRow(id)
		if err == nil {
			ds.Images = append(ds.Images, r)
		} else if !errors.Is(err, ErrNoObject) {
			return nil, err
		}
	}
	for _, id := range sorted(want[AudioTable]) {
		r, err := m.GetAudioRow(id)
		if err == nil {
			ds.Audios = append(ds.Audios, r)
		} else if !errors.Is(err, ErrNoObject) {
			return nil, err
		}
	}
	for _, id := range sorted(want[CmpTable]) {
		r, err := m.GetCmpRow(id)
		if err == nil {
			ds.Cmps = append(ds.Cmps, r)
		} else if !errors.Is(err, ErrNoObject) {
			return nil, err
		}
	}
	return ds, nil
}

// AdoptDataset merges an exported dataset into this database under the
// sender's row ids. ensure is called once per blob cell being written
// whose handle differs from what the cell held before (for the cluster,
// ensure runs PutBlobFromChunks, which ingests missing payloads and
// reference-bumps present ones — either way the new cell owns exactly
// one reference). Unchanged rows are skipped entirely; changed rows
// release their displaced handles. It returns how many rows were
// inserted or updated.
func (m *MediaDB) AdoptDataset(ds *Dataset, ensure func(h blob.Handle) error) (int, error) {
	adopted := 0
	// adoptRow upserts one row of tbl: old == nil inserts under id,
	// otherwise updates. blobCols names the row's blob columns;
	// oldHandles/newHandles align with them.
	adoptRow := func(tbl *store.Table, id uint64, old store.Row, row store.Row, blobCols []int, oldHandles, newHandles []blob.Handle) error {
		var ensured []blob.Handle
		unwind := func() {
			for _, h := range ensured {
				m.db.ReleaseBlob(h)
			}
		}
		for i, nh := range newHandles {
			if nh.IsZero() || (old != nil && nh == oldHandles[i]) {
				continue // NULL cell, or the cell already owns this payload
			}
			if err := ensure(nh); err != nil {
				unwind()
				return err
			}
			ensured = append(ensured, nh)
		}
		if old == nil {
			if err := tbl.InsertWithID(id, row); err != nil {
				unwind()
				return err
			}
			adopted++
			return nil
		}
		// Swap-and-read-old atomically (PutDocument's discipline), then
		// release only the handles the update actually displaced; a cell
		// keeping its digest carries its reference through the update.
		displaced, err := tbl.UpdateReturningOld(id, row)
		if err != nil {
			unwind()
			return err
		}
		adopted++
		var first error
		for i, ci := range blobCols {
			oh, err := blobHandleAt(displaced, ci)
			if err != nil {
				if first == nil {
					first = err
				}
				continue
			}
			if oh.IsZero() || oh == newHandles[i] {
				continue
			}
			if err := m.db.ReleaseBlob(oh); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	imgs, err := m.db.Table(ImageTable)
	if err != nil {
		return adopted, err
	}
	for _, r := range ds.Images {
		old, ok, err := imgs.Get(r.ID)
		if err != nil {
			return adopted, err
		}
		row := store.Row{r.Quality, r.Texts, r.CM, r.Data}
		if ok {
			oh, err := blobHandleAt(old, 3)
			if err != nil {
				return adopted, err
			}
			if old[0] == r.Quality && old[1] == r.Texts && old[2] == r.CM && oh == r.Data {
				continue
			}
			if err := adoptRow(imgs, r.ID, old, row, []int{3}, []blob.Handle{oh}, []blob.Handle{r.Data}); err != nil {
				return adopted, err
			}
			continue
		}
		if err := adoptRow(imgs, r.ID, nil, row, []int{3}, nil, []blob.Handle{r.Data}); err != nil {
			return adopted, err
		}
	}

	auds, err := m.db.Table(AudioTable)
	if err != nil {
		return adopted, err
	}
	for _, r := range ds.Audios {
		old, ok, err := auds.Get(r.ID)
		if err != nil {
			return adopted, err
		}
		row := store.Row{r.Filename, r.Sectors, r.Data}
		if ok {
			oh, err := blobHandleAt(old, 2)
			if err != nil {
				return adopted, err
			}
			if old[0] == r.Filename && bytesEqual(old[1], r.Sectors) && oh == r.Data {
				continue
			}
			if err := adoptRow(auds, r.ID, old, row, []int{2}, []blob.Handle{oh}, []blob.Handle{r.Data}); err != nil {
				return adopted, err
			}
			continue
		}
		if err := adoptRow(auds, r.ID, nil, row, []int{2}, nil, []blob.Handle{r.Data}); err != nil {
			return adopted, err
		}
	}

	cmps, err := m.db.Table(CmpTable)
	if err != nil {
		return adopted, err
	}
	for _, r := range ds.Cmps {
		old, ok, err := cmps.Get(r.ID)
		if err != nil {
			return adopted, err
		}
		row := store.Row{r.Filename, r.FileSize, r.Position, r.Header, r.Data}
		if ok {
			ohh, err := blobHandleAt(old, 3)
			if err != nil {
				return adopted, err
			}
			odh, err := blobHandleAt(old, 4)
			if err != nil {
				return adopted, err
			}
			if old[0] == r.Filename && old[1] == r.FileSize && old[2] == r.Position && ohh == r.Header && odh == r.Data {
				continue
			}
			if err := adoptRow(cmps, r.ID, old, row, []int{3, 4}, []blob.Handle{ohh, odh}, []blob.Handle{r.Header, r.Data}); err != nil {
				return adopted, err
			}
			continue
		}
		if err := adoptRow(cmps, r.ID, nil, row, []int{3, 4}, nil, []blob.Handle{r.Header, r.Data}); err != nil {
			return adopted, err
		}
	}

	// Document row last: once it lands, a takeover can rebuild the room
	// and every object reference above already resolves.
	docs, err := m.db.Table(DocumentTable)
	if err != nil {
		return adopted, err
	}
	ids, err := docs.LookupString("FLD_DOCID", ds.DocID)
	if err != nil {
		return adopted, err
	}
	row := store.Row{ds.DocID, ds.Title, ds.DocBlob}
	if len(ids) > 0 {
		old, ok, err := docs.Get(ids[0])
		if err != nil || !ok {
			return adopted, fmt.Errorf("mediadb: document row vanished: %v", err)
		}
		oh, err := blobHandleAt(old, 2)
		if err != nil {
			return adopted, err
		}
		if old[1] == ds.Title && oh == ds.DocBlob {
			return adopted, nil
		}
		if err := adoptRow(docs, ids[0], old, row, []int{2}, []blob.Handle{oh}, []blob.Handle{ds.DocBlob}); err != nil {
			return adopted, err
		}
		return adopted, nil
	}
	var ensured bool
	if !ds.DocBlob.IsZero() {
		if err := ensure(ds.DocBlob); err != nil {
			return adopted, err
		}
		ensured = true
	}
	if _, err := docs.Insert(row); err != nil {
		if ensured {
			m.db.ReleaseBlob(ds.DocBlob)
		}
		return adopted, err
	}
	adopted++
	return adopted, nil
}

// bytesEqual compares a decoded TBytes cell against a replica value.
func bytesEqual(cell any, b []byte) bool {
	a, ok := cell.([]byte)
	if !ok {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
