package mediadb

import (
	"bytes"
	"fmt"
	"testing"

	"mmconf/internal/blob"
	"mmconf/internal/document"
	"mmconf/internal/store"
)

// populateRecord seeds one document whose components reference an image,
// an audio fragment and a compressed stream, returning the doc id and
// the object ids assigned.
func populateRecord(t *testing.T, m *MediaDB, docID string, fill byte) (imgID, audID, cmpID uint64) {
	t.Helper()
	img := bytes.Repeat([]byte{fill}, 9000)
	aud := bytes.Repeat([]byte{fill ^ 0x0F}, 7000)
	hdr := []byte{fill, 1, 2, 3}
	cmp := bytes.Repeat([]byte{fill ^ 0xF0}, 11000)

	var err error
	if imgID, err = m.PutImage(2, "axial", 0.5, img); err != nil {
		t.Fatalf("PutImage: %v", err)
	}
	if audID, err = m.PutAudio("note.wav", []byte{1, 2}, aud); err != nil {
		t.Fatalf("PutAudio: %v", err)
	}
	if cmpID, err = m.PutCmp("scan.cmp", hdr, cmp); err != nil {
		t.Fatalf("PutCmp: %v", err)
	}
	root := &document.Component{
		Name: "record",
		Children: []*document.Component{
			{Name: "ct", Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage, ObjectID: imgID, Bytes: 9000},
				{Name: "icon", Kind: document.KindIcon, ObjectID: imgID, Bytes: 100},
				{Name: "lowres", Kind: document.KindImageLowRes, ObjectID: cmpID, Bytes: 11000},
			}},
			{Name: "voice", Presentations: []document.Presentation{
				{Name: "audio", Kind: document.KindAudio, ObjectID: audID, Bytes: 7000},
				{Name: "hidden", Kind: document.KindHidden},
			}},
		},
	}
	doc, err := document.New(docID, "Record "+docID, root)
	if err != nil {
		t.Fatalf("document.New: %v", err)
	}
	if err := m.PutDocument(doc); err != nil {
		t.Fatalf("PutDocument: %v", err)
	}
	return imgID, audID, cmpID
}

// replicateEnsure returns an ensure hook that moves payloads from src to
// dst via the digest protocol, counting chunk bytes transferred.
func replicateEnsure(t *testing.T, src, dst *MediaDB, transferred *int64) func(h blob.Handle) error {
	return func(h blob.Handle) error {
		t.Helper()
		manifest, err := src.DB().BlobManifest(h)
		if err != nil {
			return err
		}
		data := make(map[blob.Digest][]byte)
		for _, cd := range dst.DB().MissingBlobChunks(manifest) {
			chunk, err := src.DB().GetBlobChunk(cd)
			if err != nil {
				return err
			}
			data[cd] = chunk
			*transferred += int64(len(chunk))
		}
		_, err = dst.DB().PutBlobFromChunks(h.Digest, h.Length, manifest, data)
		return err
	}
}

func TestExportDataset(t *testing.T) {
	m := openMedia(t)
	imgID, audID, cmpID := populateRecord(t, m, "p1", 0x21)
	ds, err := m.ExportDataset("p1")
	if err != nil {
		t.Fatalf("ExportDataset: %v", err)
	}
	// One row per referenced object (full and icon share the image), in
	// table then id order, the document row last and unnumbered.
	want := []struct {
		table string
		id    uint64
		cell  int
		value any
	}{
		{ImageTable, imgID, 1, "axial"},
		{AudioTable, audID, 0, "note.wav"},
		{CmpTable, cmpID, 0, "scan.cmp"},
		{DocumentTable, 0, 1, "Record p1"},
	}
	if ds.DocID != "p1" || len(ds.Rows) != len(want) {
		t.Fatalf("dataset: %+v", ds)
	}
	for i, w := range want {
		r := ds.Rows[i]
		if r.Table != w.table || r.ID != w.id || r.Row[w.cell] != w.value {
			t.Errorf("row %d: %+v, want %s/%d with cell %d = %v", i, r, w.table, w.id, w.cell, w.value)
		}
	}
	// 5 distinct payloads: doc, image, audio, cmp header, cmp stream.
	if hs := ds.Handles(); len(hs) != 5 {
		t.Errorf("Handles() = %d distinct, want 5", len(hs))
	}
	if _, err := m.ExportDataset("absent"); err == nil {
		t.Errorf("ExportDataset(absent) did not fail")
	}
}

func TestAdoptDatasetIntoEmptyDB(t *testing.T) {
	src := openMedia(t)
	dst := openMedia(t)
	imgID, audID, cmpID := populateRecord(t, src, "p1", 0x42)
	ds, err := src.ExportDataset("p1")
	if err != nil {
		t.Fatalf("ExportDataset: %v", err)
	}

	var transferred int64
	adopted, err := dst.AdoptDataset(ds, replicateEnsure(t, src, dst, &transferred))
	if err != nil {
		t.Fatalf("AdoptDataset: %v", err)
	}
	if adopted != 4 {
		t.Errorf("adopted %d rows, want 4", adopted)
	}
	if transferred == 0 {
		t.Errorf("empty receiver pulled no chunk bytes")
	}

	// Every object is now readable on the replica under the owner's id,
	// byte-identical to the source.
	for _, tc := range []struct{ a, b func() ([]byte, error) }{
		{func() ([]byte, error) { o, err := src.GetImage(imgID); return o.Data, err },
			func() ([]byte, error) { o, err := dst.GetImage(imgID); return o.Data, err }},
		{func() ([]byte, error) { o, err := src.GetAudio(audID); return o.Data, err },
			func() ([]byte, error) { o, err := dst.GetAudio(audID); return o.Data, err }},
		{func() ([]byte, error) { o, err := src.GetCmp(cmpID); return o.Data, err },
			func() ([]byte, error) { o, err := dst.GetCmp(cmpID); return o.Data, err }},
	} {
		want, err := tc.a()
		if err != nil {
			t.Fatalf("source read: %v", err)
		}
		got, err := tc.b()
		if err != nil {
			t.Fatalf("replica read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica payload differs")
		}
	}
	doc, err := dst.GetDocument("p1")
	if err != nil || doc.Title != "Record p1" {
		t.Fatalf("replica GetDocument: %v", err)
	}

	// Re-adopting the identical dataset is a no-op: no rows, no bytes.
	transferred = 0
	adopted, err = dst.AdoptDataset(ds, replicateEnsure(t, src, dst, &transferred))
	if err != nil {
		t.Fatalf("re-AdoptDataset: %v", err)
	}
	if adopted != 0 || transferred != 0 {
		t.Errorf("repeat adopt: %d rows, %d bytes, want 0/0", adopted, transferred)
	}
	// Refcounts stayed balanced: fsck-style invariant via BlobStats.
	if _, missing := dst.DB().BlobStats(); missing != 0 {
		t.Errorf("replica has %d dangling blob references", missing)
	}
}

func TestAdoptDatasetUpdatesChangedRows(t *testing.T) {
	src := openMedia(t)
	dst := openMedia(t)
	imgID, _, _ := populateRecord(t, src, "p1", 0x10)
	ds, err := src.ExportDataset("p1")
	if err != nil {
		t.Fatalf("ExportDataset: %v", err)
	}
	var transferred int64
	if _, err := dst.AdoptDataset(ds, replicateEnsure(t, src, dst, &transferred)); err != nil {
		t.Fatalf("AdoptDataset: %v", err)
	}

	// Mutate the source: new annotations (same payload) on the image.
	if err := src.UpdateImageTexts(imgID, "lesion at L4"); err != nil {
		t.Fatalf("UpdateImageTexts: %v", err)
	}
	ds2, err := src.ExportDataset("p1")
	if err != nil {
		t.Fatalf("re-ExportDataset: %v", err)
	}
	transferred = 0
	adopted, err := dst.AdoptDataset(ds2, replicateEnsure(t, src, dst, &transferred))
	if err != nil {
		t.Fatalf("AdoptDataset after text edit: %v", err)
	}
	// Exactly the image row changed, and its payload digest did not, so
	// zero chunk bytes moved.
	if adopted != 1 || transferred != 0 {
		t.Errorf("text-edit adopt: %d rows, %d bytes, want 1 row / 0 bytes", adopted, transferred)
	}
	if o, err := dst.GetImage(imgID); err != nil || o.Texts != "lesion at L4" {
		t.Errorf("replica texts: %v %q", err, o.Texts)
	}
	if _, missing := dst.DB().BlobStats(); missing != 0 {
		t.Errorf("replica has %d dangling blob references", missing)
	}
}

func TestAdoptDatasetSharesAcrossDocuments(t *testing.T) {
	src := openMedia(t)
	dst := openMedia(t)
	// Two documents over identical payload bytes: after replicating the
	// first, the second costs zero chunk bytes (cross-room dedup).
	populateRecord(t, src, "p1", 0x5A)
	populateRecord(t, src, "p2", 0x5A)
	ds1, err := src.ExportDataset("p1")
	if err != nil {
		t.Fatalf("ExportDataset p1: %v", err)
	}
	ds2, err := src.ExportDataset("p2")
	if err != nil {
		t.Fatalf("ExportDataset p2: %v", err)
	}
	var transferred int64
	if _, err := dst.AdoptDataset(ds1, replicateEnsure(t, src, dst, &transferred)); err != nil {
		t.Fatalf("AdoptDataset p1: %v", err)
	}
	first := transferred
	if first == 0 {
		t.Fatalf("first dataset moved no bytes")
	}
	transferred = 0
	adopted, err := dst.AdoptDataset(ds2, replicateEnsure(t, src, dst, &transferred))
	if err != nil {
		t.Fatalf("AdoptDataset p2: %v", err)
	}
	if adopted == 0 {
		t.Errorf("second document adopted no rows")
	}
	// p2's media payloads are byte-identical to p1's; only its document
	// blob (distinct doc id inside) can move chunks.
	if transferred >= first/2 {
		t.Errorf("second dataset moved %d bytes (first: %d); payload dedup failed", transferred, first)
	}
	for _, id := range []string{"p1", "p2"} {
		if _, err := dst.GetDocument(id); err != nil {
			t.Errorf("GetDocument(%s): %v", id, err)
		}
	}
	if _, missing := dst.DB().BlobStats(); missing != 0 {
		t.Errorf("replica has %d dangling blob references", missing)
	}
}

func TestAdoptDatasetEnsureFailure(t *testing.T) {
	src := openMedia(t)
	dst := openMedia(t)
	populateRecord(t, src, "p1", 0x33)
	ds, err := src.ExportDataset("p1")
	if err != nil {
		t.Fatalf("ExportDataset: %v", err)
	}
	boom := fmt.Errorf("link down")
	if _, err := dst.AdoptDataset(ds, func(blob.Handle) error { return boom }); err == nil {
		t.Fatalf("AdoptDataset swallowed the ensure failure")
	}
	// A failed adopt leaves no dangling references behind.
	if _, missing := dst.DB().BlobStats(); missing != 0 {
		t.Errorf("failed adopt left %d dangling references", missing)
	}
}

// TestAdoptDatasetRefusals: rows arrive untyped off a node link, so a
// dataset this database cannot hold as sent is refused whole — before the
// first payload is pulled and with nothing written.
func TestAdoptDatasetRefusals(t *testing.T) {
	src := openMedia(t)
	populateRecord(t, src, "p1", 0x61)
	// Each case spoils a fresh export; rows are image, audio, cmp, document.
	cases := []struct {
		name  string
		spoil func(ds *Dataset)
	}{
		{"a row for the catalog table", func(ds *Dataset) {
			ds.Rows[0] = DatasetRow{Table: CatalogTable, ID: 9, Row: store.Row{"Image", "x", "rw", ImageTable, "again"}}
		}},
		{"a short row", func(ds *Dataset) { ds.Rows[1].Row = ds.Rows[1].Row[:2] }},
		{"an int64 in a blob column", func(ds *Dataset) { ds.Rows[2].Row[3] = int64(7) }},
		{"a document row of another document", func(ds *Dataset) { ds.Rows[3].Row[0] = "p2" }},
		{"a document row before a media row", func(ds *Dataset) { ds.Rows[0], ds.Rows[3] = ds.Rows[3], ds.Rows[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := src.ExportDataset("p1")
			if err != nil {
				t.Fatal(err)
			}
			tc.spoil(ds)
			dst := openMedia(t)
			adopted, err := dst.AdoptDataset(ds, func(h blob.Handle) error {
				t.Errorf("ensure(%s) called for a dataset that must be refused", h)
				return nil
			})
			if err == nil || adopted != 0 {
				t.Errorf("adopted %d rows, error %v; want a refusal", adopted, err)
			}
			for _, name := range []string{ImageTable, AudioTable, CmpTable, DocumentTable} {
				tbl, err := dst.DB().Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := tbl.Len(); n != 0 {
					t.Errorf("%s holds %d rows after the refusal", name, n)
				}
			}
			if rep, err := dst.DB().FsckBlobs(); err != nil || !rep.Clean() || rep.Objects != 0 {
				t.Errorf("fsck after the refusal: %+v, %v", rep, err)
			}
		})
	}
}
