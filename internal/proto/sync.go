// Dataset replication plane: how a room owner and its standby converge
// media datasets by digest instead of by copy. The owner ships a room's
// table rows, payload cells as blob handles, plus the chunk manifests
// behind them in the room's replication frame (ReplicateReq, cluster.go);
// the standby diffs the manifests against its own CAS and pulls only the
// chunks it lacks (MNodeFetchChunks). Rows cross as the store keeps them,
// a mediadb.DatasetRow whose cells store.AppendRow writes — a payload as
// its handle, never as bytes: which cells a table's rows take is its
// schema's to say, and that is spelled in internal/mediadb alone.
package proto

import (
	"mmconf/internal/blob"
	"mmconf/internal/mediadb"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// MNodeFetchChunks pulls a batch of CAS chunks by digest from the node
// that advertised them (code 30, cluster.go).
const MNodeFetchChunks = "node.fetchchunks"

// BlobManifest is one object's chunk recipe: the ordered chunk digests
// whose concatenation hashes to Digest. The receiver diffs Chunks
// against its CAS to compute the (possibly empty) transfer set.
type BlobManifest struct {
	Digest blob.Digest
	Length uint32
	Chunks []blob.Digest
}

// FetchChunksReq pulls a batch of chunks by digest.
type FetchChunksReq struct {
	Node    string // requesting node id
	Digests []blob.Digest
}

// FetchChunksResp returns the chunk payloads aligned by index with the
// request; a nil entry means the responder no longer holds that chunk.
type FetchChunksResp struct {
	Chunks [][]byte
}

// --- binary codecs ---------------------------------------------------------

// appendDigests writes a count and that many fixed-width digests: a
// digest of any other length cannot be framed, so none is ever decoded.
func appendDigests(e *wire.BodyEnc, ds []blob.Digest) {
	e.Uvarint(uint64(len(ds)))
	for i := range ds {
		e.Fixed(ds[i][:])
	}
}

func decodeDigests(d *wire.Dec) []blob.Digest {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil
	}
	out := make([]blob.Digest, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var dg blob.Digest
		d.Fixed(dg[:])
		out = append(out, dg)
	}
	return out
}

// appendRows writes a dataset's rows: a count, then each row's table,
// id and cells.
func appendRows(e *wire.BodyEnc, rows []mediadb.DatasetRow) {
	e.Uvarint(uint64(len(rows)))
	for i := range rows {
		e.String(rows[i].Table)
		e.Uvarint(rows[i].ID)
		store.AppendRow(e, rows[i].Row)
	}
}

func decodeRows(d *wire.Dec) ([]mediadb.DatasetRow, error) {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil, d.Err()
	}
	rows := make([]mediadb.DatasetRow, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		row := mediadb.DatasetRow{Table: d.String(), ID: d.Uvarint()}
		var err error
		if row.Row, err = store.DecodeRow(d); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, d.Err()
}

// appendManifests writes a count, then each manifest's digest, length
// and chunk digests.
func appendManifests(e *wire.BodyEnc, ms []BlobManifest) {
	e.Uvarint(uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		e.Fixed(m.Digest[:])
		e.Uvarint(uint64(m.Length))
		appendDigests(e, m.Chunks)
	}
}

func decodeManifests(d *wire.Dec) []BlobManifest {
	n := d.Count()
	if n == 0 || d.Err() != nil {
		return nil
	}
	ms := make([]BlobManifest, 0, min(n, 4096))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var m BlobManifest
		d.Fixed(m.Digest[:])
		m.Length = uint32(d.Uvarint())
		m.Chunks = decodeDigests(d)
		ms = append(ms, m)
	}
	return ms
}

// AppendBody implements wire.BodyEncoder.
func (r *FetchChunksReq) AppendBody(e *wire.BodyEnc) {
	e.String(r.Node)
	appendDigests(e, r.Digests)
}

// DecodeBody implements wire.BodyDecoder.
func (r *FetchChunksReq) DecodeBody(d *wire.Dec) error {
	r.Node = d.String()
	r.Digests = decodeDigests(d)
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
	r.Chunks = nil
	if n := d.Count(); n > 0 && d.Err() == nil {
		r.Chunks = make([][]byte, 0, min(n, 4096))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			r.Chunks = append(r.Chunks, d.Bytes())
		}
	}
	return d.Err()
}
