package mediadb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mmconf/internal/document"
	"mmconf/internal/store"
)

func openMedia(t *testing.T) *MediaDB {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := Open(db)
	if err != nil {
		t.Fatalf("mediadb.Open: %v", err)
	}
	return m
}

func TestSchemaBootstrap(t *testing.T) {
	m := openMedia(t)
	for _, name := range []string{CatalogTable, ImageTable, AudioTable, CmpTable, DocumentTable} {
		if !m.DB().HasTable(name) {
			t.Errorf("table %s missing", name)
		}
	}
	types, err := m.Types()
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 4 {
		t.Errorf("builtin types = %d, want 4", len(types))
	}
	ti, err := m.TypeByName("Image")
	if err != nil || ti.ObjectTable != ImageTable {
		t.Errorf("TypeByName(Image) = %+v, %v", ti, err)
	}
	if _, err := m.TypeByName("nosuch"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
	m, err := Open(db) // second Open over the same store
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	types, _ := m.Types()
	if len(types) != 4 {
		t.Errorf("types after double open = %d, want 4 (no duplicates)", len(types))
	}
}

func TestRegisterType(t *testing.T) {
	m := openMedia(t)
	// New types need their object table first — the Fig. 7 extension path.
	if err := m.RegisterType(TypeInfo{Name: "Video", ObjectTable: "VIDEO_OBJECTS_TABLE"}); err == nil {
		t.Error("type with missing object table accepted")
	}
	if _, err := m.DB().CreateTable("VIDEO_OBJECTS_TABLE", []store.Column{
		{Name: "FLD_DATA", Type: store.TBlob},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterType(TypeInfo{Name: "Video", MIME: "video/x-raw", AccessType: "read-write",
		ObjectTable: "VIDEO_OBJECTS_TABLE", Description: "synthetic video"}); err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	if err := m.RegisterType(TypeInfo{Name: "Video", ObjectTable: "VIDEO_OBJECTS_TABLE"}); err == nil {
		t.Error("duplicate type accepted")
	}
	if err := m.RegisterType(TypeInfo{Name: "", ObjectTable: "VIDEO_OBJECTS_TABLE"}); err == nil {
		t.Error("nameless type accepted")
	}
	ti, err := m.TypeByName("Video")
	if err != nil || ti.MIME != "video/x-raw" {
		t.Errorf("TypeByName(Video) = %+v, %v", ti, err)
	}
}

func TestImageObjects(t *testing.T) {
	m := openMedia(t)
	data := bytes.Repeat([]byte{0x11, 0x22}, 5000)
	id, err := m.PutImage(85, "axial slice 12", 0.05, data)
	if err != nil {
		t.Fatalf("PutImage: %v", err)
	}
	img, err := m.GetImage(id)
	if err != nil {
		t.Fatalf("GetImage: %v", err)
	}
	if img.Quality != 85 || img.Texts != "axial slice 12" || img.CM != 0.05 || !bytes.Equal(img.Data, data) {
		t.Errorf("image round trip drift: %+v", img)
	}
	if err := m.UpdateImageTexts(id, "axial slice 12 [annotated]"); err != nil {
		t.Fatalf("UpdateImageTexts: %v", err)
	}
	img, _ = m.GetImage(id)
	if img.Texts != "axial slice 12 [annotated]" {
		t.Errorf("texts = %q", img.Texts)
	}
	if _, err := m.GetImage(9999); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing image: err = %v, want ErrNoObject", err)
	}
	if err := m.UpdateImageTexts(9999, "x"); !errors.Is(err, ErrNoObject) {
		t.Errorf("update of missing image: err = %v, want ErrNoObject", err)
	}
	// The row by reference: mutable columns and the raster's handle.
	row, err := m.GetImageRow(id)
	if err != nil || row.Texts != img.Texts || row.Data.Digest != img.Digest || int(row.Data.Length) != len(data) {
		t.Errorf("GetImageRow = %+v, %v", row, err)
	}
}

func TestAudioObjects(t *testing.T) {
	m := openMedia(t)
	wave := bytes.Repeat([]byte{0x7F, 0x80}, 8000)
	sectors := []byte(`[{"start":0,"end":4000,"type":"speech"}]`)
	id, err := m.PutAudio("consult-2026-07-06.pcm", sectors, wave)
	if err != nil {
		t.Fatalf("PutAudio: %v", err)
	}
	a, err := m.GetAudio(id)
	if err != nil {
		t.Fatalf("GetAudio: %v", err)
	}
	if a.Filename != "consult-2026-07-06.pcm" || !bytes.Equal(a.Sectors, sectors) || !bytes.Equal(a.Data, wave) {
		t.Error("audio round trip drift")
	}
	if _, err := m.GetAudio(777); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing audio: err = %v, want ErrNoObject", err)
	}
}

func TestCmpObjects(t *testing.T) {
	m := openMedia(t)
	header := []byte{1, 2, 3, 4}
	data := bytes.Repeat([]byte{9}, 4096)
	id, err := m.PutCmp("ct-layers.mml", header, data)
	if err != nil {
		t.Fatalf("PutCmp: %v", err)
	}
	c, err := m.GetCmp(id)
	if err != nil {
		t.Fatalf("GetCmp: %v", err)
	}
	if c.Filename != "ct-layers.mml" || c.FileSize != 4096 ||
		!bytes.Equal(c.Header, header) || !bytes.Equal(c.Data, data) {
		t.Errorf("cmp round trip drift: %+v", c)
	}
	if _, err := m.GetCmp(12345); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing cmp: err = %v, want ErrNoObject", err)
	}
}

func testDoc(t *testing.T) *document.Document {
	t.Helper()
	root := &document.Component{
		Name: "rec", Label: "Record",
		Children: []*document.Component{
			{Name: "ct", Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage, ObjectID: 1, Bytes: 1024},
				{Name: "hidden", Kind: document.KindHidden},
			}},
		},
	}
	d, err := document.New("doc-1", "Test record", root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDocumentRoundTrip(t *testing.T) {
	m := openMedia(t)
	d := testDoc(t)
	if err := m.PutDocument(d); err != nil {
		t.Fatalf("PutDocument: %v", err)
	}
	back, err := m.GetDocument("doc-1")
	if err != nil {
		t.Fatalf("GetDocument: %v", err)
	}
	if back.Title != "Test record" || len(back.Components()) != 2 {
		t.Errorf("document drift: %s, %d components", back.Title, len(back.Components()))
	}
	v, err := back.DefaultPresentation()
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome["ct"] != "full" {
		t.Errorf("default ct = %s", v.Outcome["ct"])
	}
	if _, err := m.GetDocument("nosuch"); err == nil {
		t.Error("missing document accepted")
	}
}

func TestDocumentReplace(t *testing.T) {
	m := openMedia(t)
	d := testDoc(t)
	if err := m.PutDocument(d); err != nil {
		t.Fatal(err)
	}
	// Author revises preferences and saves again under the same id.
	if err := d.Prefs.SetUnconditional("ct", []string{"hidden", "full"}); err != nil {
		t.Fatal(err)
	}
	if err := m.PutDocument(d); err != nil {
		t.Fatalf("replace: %v", err)
	}
	ids, _, err := m.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("documents = %v, want single entry after replace", ids)
	}
	back, _ := m.GetDocument("doc-1")
	v, _ := back.DefaultPresentation()
	if v.Outcome["ct"] != "hidden" {
		t.Errorf("revision not persisted: ct = %s", v.Outcome["ct"])
	}
}

// TestConcurrentDocumentReplaceKeepsRefcounts races many saves of the
// same docID. Each displaced payload must be released exactly once: a
// double release would free a (possibly dedup-shared) payload another
// row still references, a missed release would leak the loser's new
// payload. Afterwards exactly one manifest must remain live.
func TestConcurrentDocumentReplaceKeepsRefcounts(t *testing.T) {
	m := openMedia(t)
	if err := m.PutDocument(testDoc(t)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 15
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < rounds; i++ {
				root := &document.Component{
					Name: "rec", Label: fmt.Sprintf("w%d-i%d", w, i),
					Presentations: []document.Presentation{
						{Name: "full", Kind: document.KindImage, ObjectID: 1, Bytes: int64(1 + w*rounds + i)},
					},
				}
				d, err := document.New("doc-1", fmt.Sprintf("rev w%d i%d", w, i), root)
				if err != nil {
					errc <- err
					return
				}
				if err := m.PutDocument(d); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.GetDocument("doc-1"); err != nil {
		t.Fatalf("winner unreadable after race: %v", err)
	}
	if err := m.DB().Flush(); err != nil { // drain queued releases
		t.Fatal(err)
	}
	st, _ := m.DB().BlobStats()
	if st.Manifests != 1 {
		t.Errorf("live manifests after race = %d, want 1 (leak or double free)", st.Manifests)
	}
}

func TestListDocuments(t *testing.T) {
	m := openMedia(t)
	for i, id := range []string{"a", "b", "c"} {
		d := testDoc(t)
		d.ID = id
		d.Title = "T" + id
		_ = i
		if err := m.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	ids, titles, err := m.ListDocuments()
	if err != nil || len(ids) != 3 || len(titles) != 3 {
		t.Fatalf("ListDocuments = %v, %v, %v", ids, titles, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	imgID, err := m.PutImage(50, "persists", 1.0, []byte("img"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutDocument(testDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := m2.GetImage(imgID)
	if err != nil || img.Texts != "persists" {
		t.Errorf("image after reopen: %+v, %v", img, err)
	}
	if _, err := m2.GetDocument("doc-1"); err != nil {
		t.Errorf("document after reopen: %v", err)
	}
}

// TestOverwriteBoundsStoreSize is the regression test for the
// PutDocument overwrite leak: saving the same document id over and over
// (with changing content, so runs don't dedup) must release the
// replaced payload each time, keeping the blob store's footprint flat
// instead of growing by one document per save.
func TestOverwriteBoundsStoreSize(t *testing.T) {
	// SyncAlways keeps the WAL clean after every append, so each
	// overwrite's release lands immediately instead of queueing.
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	d := testDoc(t)
	var peak int64
	for i := 0; i < 50; i++ {
		// Mutate the document so successive serializations differ.
		d.Title = "Rev " + string(rune('A'+i%26)) + string(rune('a'+i/26))
		if err := m.PutDocument(d); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		st, _ := db.BlobStats()
		if st.TotalBytes > peak {
			peak = st.TotalBytes
		}
	}
	st, _ := db.BlobStats()
	one := st.LiveBytes // a single revision's footprint
	if one == 0 {
		t.Fatal("document payload not in blob store")
	}
	if peak > 4*one {
		t.Errorf("store peaked at %d bytes for a %d-byte document: overwrites are leaking", peak, one)
	}
	if st.Manifests != 1 {
		t.Errorf("live objects after 50 overwrites = %d, want 1", st.Manifests)
	}
	// The final revision is the one that survived.
	back, err := m.GetDocument("doc-1")
	if err != nil || back.Title != d.Title {
		t.Errorf("final revision: %+v, %v", back, err)
	}
}
