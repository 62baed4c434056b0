package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mmconf/internal/blob"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

func openTestMedia(t *testing.T) *mediadb.MediaDB {
	t.Helper()
	db, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := mediadb.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomRecord stores docID in m over a random number of objects per
// table with random cells — empty strings and byte cells, negative
// numbers, a NULL payload, two rows over one payload — under ids that
// start past a random number of rows nobody references, and returns how
// many objects the document names.
func randomRecord(t *testing.T, rng *rand.Rand, m *mediadb.MediaDB, docID string) int {
	t.Helper()
	bytesOf := func(max int) []byte {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	text := func() string { return string(bytesOf(12)) }
	check := func(id uint64, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	shared := bytesOf(3000)
	payload := func() []byte {
		if rng.Intn(4) == 0 {
			return shared
		}
		return bytesOf(200_000) // up to four chunks
	}
	root := &document.Component{Name: "record"}
	named := 0
	add := func(kind document.MediaKind, id uint64) {
		named++
		root.Children = append(root.Children, &document.Component{
			Name: fmt.Sprintf("c%d", named),
			Presentations: []document.Presentation{
				{Name: "shown", Kind: kind, ObjectID: id, Bytes: 1},
				{Name: "hidden", Kind: document.KindHidden},
			},
		})
	}
	for i := rng.Intn(3); i > 0; i-- { // unreferenced: shifts the ids
		check(m.PutImage(0, "", 0, nil))
		check(m.PutAudio("", nil, nil))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		add(document.KindImage, check(m.PutImage(rng.Int63()-rng.Int63(), text(), rng.NormFloat64(), payload())))
	}
	images, err := m.DB().Table(mediadb.ImageTable)
	if err != nil {
		t.Fatal(err)
	}
	add(document.KindIcon, check(images.Insert(store.Row{int64(1), "no payload yet", 0.0, blob.Handle{}})))
	for i := rng.Intn(3); i > 0; i-- {
		add(document.KindAudio, check(m.PutAudio(text(), bytesOf(5), payload())))
	}
	for i := rng.Intn(3); i > 0; i-- {
		add(document.KindImageLowRes, check(m.PutCmp(text(), bytesOf(40), payload())))
	}
	add(document.KindImage, 1<<40) // names an object that is gone
	doc, err := document.New(docID, text(), root)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutDocument(doc); err != nil {
		t.Fatal(err)
	}
	return named
}

// TestDatasetFrameRoundTrip: rows cross as the store keeps them, so for
// any record the schema allows, what the owner exports is what the
// standby exports once the dataset part of a replication frame has
// crossed the wire and been adopted into an empty store — and adopting
// the same frame again writes nothing and pulls nothing.
func TestDatasetFrameRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src, dst := openTestMedia(t), openTestMedia(t)
		if rng.Intn(2) == 0 {
			randomRecord(t, rng, src, "earlier") // the document's row id then differs across the stores
		}
		named := randomRecord(t, rng, src, "doc")
		want, err := src.ExportDataset("doc")
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != named { // every object but the one that is gone, and the document
			t.Fatalf("seed %d: exported %d rows for %d named objects", seed, len(want.Rows), named)
		}
		sent, err := (&Node{id: "n1", db: src}).datasetFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		var req proto.ReplicateReq
		if err := wire.DecodeBodyBytes(wire.MarshalBody(sent), &req); err != nil {
			t.Fatalf("seed %d: frame does not decode: %v", seed, err)
		}
		ds := &mediadb.Dataset{DocID: req.DocID, Rows: req.Rows}
		ensures := 0
		ensure := func(h blob.Handle) error {
			ensures++
			for _, mf := range req.Manifests {
				if mf.Digest != h.Digest {
					continue
				}
				data := make(map[blob.Digest][]byte)
				for _, cd := range dst.DB().MissingBlobChunks(mf.Chunks) {
					if data[cd], err = src.DB().GetBlobChunk(cd); err != nil {
						return err
					}
				}
				_, err := dst.DB().PutBlobFromChunks(mf.Digest, mf.Length, mf.Chunks, data)
				return err
			}
			return fmt.Errorf("no manifest for %s", h)
		}
		adopted, err := dst.AdoptDataset(ds, ensure)
		if err != nil || adopted != len(want.Rows) {
			t.Fatalf("seed %d: adopted %d of %d rows: %v", seed, adopted, len(want.Rows), err)
		}
		got, err := dst.ExportDataset("doc")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: standby exports\n%+v\nowner exported\n%+v", seed, got, want)
		}
		ensures = 0
		if adopted, err := dst.AdoptDataset(ds, ensure); err != nil || adopted != 0 || ensures != 0 {
			t.Errorf("seed %d: second adopt wrote %d rows and ensured %d payloads: %v", seed, adopted, ensures, err)
		}
		if rep, err := dst.DB().FsckBlobs(); err != nil || !rep.Clean() {
			t.Errorf("seed %d: standby fsck: %+v, %v", seed, rep, err)
		}
	}
}
