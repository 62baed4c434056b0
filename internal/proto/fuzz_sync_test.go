package proto

import (
	"bytes"
	"strings"
	"testing"

	"mmconf/internal/blob"
	"mmconf/internal/wire"
)

// bodyFunc writes a body field by field, for frames no encoder of this
// package would produce.
type bodyFunc func(e *wire.BodyEnc)

func (f bodyFunc) AppendBody(e *wire.BodyEnc) { f(e) }

type hostileFrame struct {
	name, reason string
	data         []byte
}

// hostileSyncFrames are ReplicateReq bodies a skewed or hostile peer
// could send: no events, and a dataset of one row announcing `cells`
// cells, followed by the given bytes where the first cell should be.
// Each is a fuzz seed, and TestSyncFrameRefusals holds the decoder to
// refusing it for the reason named.
func hostileSyncFrames() []hostileFrame {
	frame := func(cells uint64, cell ...byte) []byte {
		return wire.MarshalBody(bodyFunc(func(e *wire.BodyEnc) {
			e.String("room")
			e.String("p1")
			e.Uvarint(9) // seq
			e.Uvarint(0) // trimmed
			e.Uvarint(0) // events
			e.String("n1")
			e.Uvarint(1) // rows
			e.String("IMAGE_OBJECTS_TABLE")
			e.Uvarint(3)
			e.Uvarint(cells)
			e.Fixed(cell)
		}))
	}
	return []hostileFrame{
		{"unknown tag", "unknown tag 5", frame(1, 5)},
		{"invalid tag", "unknown tag 255", frame(1, cellInvalid)},
		{"truncated digest", "truncated", frame(1, append([]byte{cellBlob}, make([]byte, len(blob.Digest{})-1)...)...)},
		{"cell count beyond input", "truncated", frame(1<<40, cellInt, 2)},
	}
}

func TestSyncFrameRefusals(t *testing.T) {
	for _, hf := range hostileSyncFrames() {
		var req ReplicateReq
		err := wire.DecodeBodyBytes(hf.data, &req)
		if err == nil || !strings.Contains(err.Error(), hf.reason) {
			t.Errorf("%s: decoded to %+v, error %v; want one naming %q", hf.name, req, err, hf.reason)
		}
		if len(req.Rows) > 0 && cap(req.Rows[0].Cells) > 64 {
			t.Errorf("%s: %d cell slots allocated on the frame's say-so", hf.name, cap(req.Rows[0].Cells))
		}
	}
	// A cell that is none of the store's five types has no tag: what the
	// encoder writes for it, no decoder accepts.
	data := wire.MarshalBody(&ReplicateReq{Rows: []SyncRow{{Table: "t", ID: 1, Cells: []any{int32(7)}}}})
	if err := wire.DecodeBodyBytes(data, new(ReplicateReq)); err == nil {
		t.Errorf("a frame carrying an int32 cell decoded")
	}
}

// FuzzReplicationFrame throws arbitrary payload bytes at the dataset
// replication codecs (a replication frame carrying a dataset, chunk batch
// fetch). These frames arrive over node links from peers that may be
// skewed, truncated or hostile, so the decoders must never panic and
// must bound their allocations whatever counts the input claims; any
// accepted body must re-encode and re-decode to a fixed point.
func FuzzReplicationFrame(f *testing.F) {
	d1, d2, d3 := blob.Digest{0xAA, 1}, blob.Digest{0xBB, 2}, blob.Digest{0xCC, 3}
	seeds := []wire.BodyEncoder{
		// A row of each replicated table, so of each cell tag, a zero
		// handle included.
		&ReplicateReq{
			Room: "tumor-board", DocID: "patient-001", Seq: 19, Trimmed: 2, Node: "n1",
			Rows: []SyncRow{
				{Table: "IMAGE_OBJECTS_TABLE", ID: 3, Cells: []any{
					int64(2), "lesion at L4", 0.5, blob.Handle{Digest: d2, Length: 65536}}},
				{Table: "AUDIO_OBJECTS_TABLE", ID: 7, Cells: []any{
					"note.wav", []byte{1, 2, 3}, blob.Handle{Digest: d3, Length: 9000}}},
				{Table: "CMP_OBJECTS_TABLE", ID: 9, Cells: []any{
					"scan.cmp", int64(65536), int64(-12), blob.Handle{}, blob.Handle{Digest: d2, Length: 65536}}},
				{Table: "DOCUMENT_OBJECTS_TABLE", Cells: []any{
					"patient-001", "CT study", blob.Handle{Digest: d1, Length: 512}}},
			},
			Manifests: []BlobManifest{
				{Digest: d2, Length: 65536, Chunks: []blob.Digest{d1, d3}},
				{Digest: d1, Length: 512, Chunks: []blob.Digest{d1}},
			},
		},
		&ReplicateReq{Room: "empty", DocID: "p2", Node: "n2"},
		&ReplicateResp{Seq: 1 << 20},
		&FetchChunksReq{Node: "n2", Digests: []blob.Digest{d1, d2, d3}},
		&FetchChunksResp{Chunks: [][]byte{bytes.Repeat([]byte{0x11}, 600), nil, {0x22}}},
	}
	for _, hf := range hostileSyncFrames() {
		f.Add(hf.data)
	}
	for _, b := range seeds {
		data := wire.MarshalBody(b)
		f.Add(data)
		// Truncation at every prefix: each must be rejected cleanly.
		for i := 0; i < len(data); i++ {
			f.Add(data[:i])
		}
	}
	// Hostile lengths: uvarints claiming counts and payloads far beyond
	// the input.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})

	fresh := []func() wire.BodyDecoder{
		func() wire.BodyDecoder { return new(ReplicateReq) },
		func() wire.BodyDecoder { return new(ReplicateResp) },
		func() wire.BodyDecoder { return new(FetchChunksReq) },
		func() wire.BodyDecoder { return new(FetchChunksResp) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range fresh {
			v := mk()
			if err := wire.DecodeBodyBytes(data, v); err != nil {
				continue
			}
			enc, ok := v.(wire.BodyEncoder)
			if !ok {
				t.Fatalf("%T decodes but does not encode", v)
			}
			out := wire.MarshalBody(enc)
			v2 := mk()
			if err := wire.DecodeBodyBytes(out, v2); err != nil {
				t.Fatalf("%T: accepted %d bytes but re-encoded form fails: %v", v, len(data), err)
			}
			if len(wire.MarshalBody(v2.(wire.BodyEncoder))) != len(out) {
				t.Fatalf("%T: re-encode not a fixed point", v)
			}
		}
	})
}
