// Dataset replication plane: the frames a room owner and its standby
// speak to converge media datasets by digest instead of by copy. The
// owner ships a room's table rows with blob *references* plus the chunk
// manifests behind them (MNodeSyncManifest); the standby diffs the
// manifests against its own CAS and pulls only the chunks it lacks
// (MNodeFetchChunks). Both ride the node-link plane established in
// cluster.go — binary codecs, stable method codes, node-to-node only.
package proto

import "mmconf/internal/wire"

// Node-link method names (dataset replication).
const (
	// MNodeSyncManifest ships a room's dataset rows and blob manifests
	// from the owner to the room's standby. The standby adopts rows,
	// pulls missing chunks back over MNodeFetchChunks, and acknowledges
	// with its transfer accounting.
	MNodeSyncManifest = "node.syncmanifest"
	// MNodeFetchChunks pulls a batch of CAS chunks by digest from the
	// node that advertised them.
	MNodeFetchChunks = "node.fetchchunks"
)

// Method codes continue the node-link space (25–28 in cluster.go).
var syncMethodCodes = map[uint16]string{
	29: MNodeSyncManifest,
	30: MNodeFetchChunks,
}

func init() {
	for code, method := range syncMethodCodes {
		wire.RegisterMethodCode(code, method)
	}
}

// BlobRef names a stored payload without carrying it: content digest
// plus length — exactly a blob.Handle flattened for the wire. A zero-
// length ref with no digest means "no blob" (NULL cell).
type BlobRef struct {
	Digest []byte
	Length uint32
}

// SyncImageRow is one IMAGE_OBJECTS_TABLE row with its payload by
// reference.
type SyncImageRow struct {
	ID      uint64
	Quality int64
	Texts   string
	CM      float64
	Data    BlobRef
}

// SyncAudioRow is one AUDIO_OBJECTS_TABLE row with its payload by
// reference. Sectors is small enough to ship inline.
type SyncAudioRow struct {
	ID       uint64
	Filename string
	Sectors  []byte
	Data     BlobRef
}

// SyncCmpRow is one CMP_OBJECTS_TABLE row with header and stream by
// reference.
type SyncCmpRow struct {
	ID       uint64
	Filename string
	FileSize int64
	Position int64
	Header   BlobRef
	Data     BlobRef
}

// BlobManifest is one object's chunk recipe: the ordered chunk digests
// whose concatenation hashes to Digest. The receiver diffs Chunks
// against its CAS to compute the (possibly empty) transfer set.
type BlobManifest struct {
	Digest []byte
	Length uint32
	Chunks [][]byte
}

// SyncManifestReq replicates one room's dataset to its standby: the
// document row, the media rows its components reference, and a manifest
// for every distinct blob those rows name. No payload bytes ride in
// this frame — the standby pulls exactly the chunks it is missing.
type SyncManifestReq struct {
	Room      string
	Node      string // sending node id — the standby pulls chunks back from it
	DocID     string
	Title     string
	DocBlob   BlobRef
	Images    []SyncImageRow
	Audios    []SyncAudioRow
	Cmps      []SyncCmpRow
	Manifests []BlobManifest
}

// SyncManifestResp acknowledges adoption with transfer accounting —
// the numbers the replication tests assert on.
type SyncManifestResp struct {
	Node             string
	RowsAdopted      uint32
	ChunksPulled     uint32
	ChunkBytesPulled uint64
}

// FetchChunksReq pulls a batch of chunks by digest.
type FetchChunksReq struct {
	Node    string // requesting node id
	Digests [][]byte
}

// FetchChunksResp returns the chunk payloads aligned by index with the
// request; a nil entry means the responder no longer holds that chunk.
type FetchChunksResp struct {
	Chunks [][]byte
}

// --- binary codecs ---------------------------------------------------------

func appendBlobRef(e *wire.BodyEnc, r BlobRef) {
	e.Bytes(r.Digest)
	e.Uvarint(uint64(r.Length))
}

func decodeBlobRef(d *wire.Dec) BlobRef {
	return BlobRef{Digest: d.Bytes(), Length: uint32(d.Uvarint())}
}

func appendByteSlices(e *wire.BodyEnc, bs [][]byte) {
	e.Uvarint(uint64(len(bs)))
	for _, b := range bs {
		e.Bytes(b)
	}
}

func decodeByteSlices(d *wire.Dec) [][]byte {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return nil
	}
	out := make([][]byte, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.Bytes())
	}
	return out
}

// AppendBody implements wire.BodyEncoder.
func (r *SyncManifestReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Room)
	e.String(r.Node)
	e.String(r.DocID)
	e.String(r.Title)
	appendBlobRef(e, r.DocBlob)
	e.Uvarint(uint64(len(r.Images)))
	for i := range r.Images {
		im := &r.Images[i]
		e.Uvarint(im.ID)
		e.Varint(im.Quality)
		e.String(im.Texts)
		e.F64(im.CM)
		appendBlobRef(e, im.Data)
	}
	e.Uvarint(uint64(len(r.Audios)))
	for i := range r.Audios {
		au := &r.Audios[i]
		e.Uvarint(au.ID)
		e.String(au.Filename)
		e.Bytes(au.Sectors)
		appendBlobRef(e, au.Data)
	}
	e.Uvarint(uint64(len(r.Cmps)))
	for i := range r.Cmps {
		cm := &r.Cmps[i]
		e.Uvarint(cm.ID)
		e.String(cm.Filename)
		e.Varint(cm.FileSize)
		e.Varint(cm.Position)
		appendBlobRef(e, cm.Header)
		appendBlobRef(e, cm.Data)
	}
	e.Uvarint(uint64(len(r.Manifests)))
	for i := range r.Manifests {
		m := &r.Manifests[i]
		e.Bytes(m.Digest)
		e.Uvarint(uint64(m.Length))
		appendByteSlices(e, m.Chunks)
	}
}

// DecodeBody implements wire.BodyDecoder.
func (r *SyncManifestReq) DecodeBody(d *wire.Dec) error {
	r.Room = d.String()
	r.Node = d.String()
	r.DocID = d.String()
	r.Title = d.String()
	r.DocBlob = decodeBlobRef(d)
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		r.Images = make([]SyncImageRow, 0, min(n, 4096))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.Images = append(r.Images, SyncImageRow{
				ID: d.Uvarint(), Quality: d.Varint(), Texts: d.String(),
				CM: d.F64(), Data: decodeBlobRef(d),
			})
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		r.Audios = make([]SyncAudioRow, 0, min(n, 4096))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.Audios = append(r.Audios, SyncAudioRow{
				ID: d.Uvarint(), Filename: d.String(), Sectors: d.Bytes(),
				Data: decodeBlobRef(d),
			})
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		r.Cmps = make([]SyncCmpRow, 0, min(n, 4096))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.Cmps = append(r.Cmps, SyncCmpRow{
				ID: d.Uvarint(), Filename: d.String(), FileSize: d.Varint(),
				Position: d.Varint(), Header: decodeBlobRef(d), Data: decodeBlobRef(d),
			})
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		r.Manifests = make([]BlobManifest, 0, min(n, 4096))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.Manifests = append(r.Manifests, BlobManifest{
				Digest: d.Bytes(), Length: uint32(d.Uvarint()),
				Chunks: decodeByteSlices(d),
			})
		}
	}
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *SyncManifestResp) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	e.Uvarint(uint64(r.RowsAdopted))
	e.Uvarint(uint64(r.ChunksPulled))
	e.Uvarint(r.ChunkBytesPulled)
}

// DecodeBody implements wire.BodyDecoder.
func (r *SyncManifestResp) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.RowsAdopted = uint32(d.Uvarint())
	r.ChunksPulled = uint32(d.Uvarint())
	r.ChunkBytesPulled = d.Uvarint()
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *FetchChunksReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	appendByteSlices(e, r.Digests)
}

// DecodeBody implements wire.BodyDecoder.
func (r *FetchChunksReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Digests = decodeByteSlices(d)
	return d.Err()
}

// AppendBody implements wire.BodyEncoder.
func (r *FetchChunksResp) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(uint64(len(r.Chunks)))
	for _, c := range r.Chunks {
		e.RawBytes(c)
	}
}

// DecodeBody implements wire.BodyDecoder.
func (r *FetchChunksResp) DecodeBody(d *wire.Dec) error {
	r.Chunks = decodeByteSlices(d)
	return d.Err()
}
