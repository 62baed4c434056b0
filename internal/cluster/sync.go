package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"

	"mmconf/internal/blob"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// This file is the dataset half of standby replication: beside each
// room's event log, its replication frame (links.go) carries the room's
// media dataset — table rows with payloads by digest, plus the chunk
// manifests behind them — whenever it may have changed. The receiver
// adopts the rows and pulls only the chunks its own CAS is missing, so a
// node can join with an empty store and converge by transferring
// exactly the bytes it lacks; payloads shared across rooms or already
// present from any earlier sync cost nothing. This is what removed the
// "equivalently seeded databases" restriction the cluster launched with.

// fetchChunkBatch bounds one MNodeFetchChunks request: 256 chunks of at
// most 64 KiB stay far inside the 64 MiB frame cap.
const fetchChunkBatch = 256

// position is the store's change position, read before a frame is built
// (0 without a store).
func (n *Node) position() uint64 {
	if n.db == nil {
		return 0
	}
	return n.db.DB().Position()
}

// attachDataset puts the room's dataset into req unless the cursor st
// shows its standby already holds it, and reports whether it did and the
// fingerprint of what it attached. Three checks, cheapest first: the
// store's change position (unmoved since the last export that was
// shipped or found identical means the export would be byte-identical,
// so return before making it), then the fingerprint of the exported
// dataset (the position is store-wide; a write to some other document
// moves it), then the attach. force — the frame carries the whole log: a
// first flush, a retry, a standby change, a hand-off — bypasses
// both comparisons and always attaches.
//
// pos is the position the caller read BEFORE the frame was built, so a
// write landing while the export runs is counted past the cursor and
// the next flush exports again. Read after the export, it could be
// counted without having been seen. A fingerprint match records pos at
// once; an attached dataset's pos is recorded when the frame lands.
func (n *Node) attachDataset(req *proto.ReplicateReq, st *repState, force bool, pos uint64) (fp [32]byte, attached bool) {
	if req.DocID == "" || n.db == nil {
		return fp, false
	}
	if !force && st.dataPos == pos {
		n.datasetUnchanged.Add(1)
		return fp, false
	}
	n.datasetExports.Add(1)
	ds, err := n.db.ExportDataset(req.DocID)
	if err != nil {
		n.logf("cluster %s: export dataset for room %q: %v", n.id, req.Room, err)
		return fp, false
	}
	data, err := n.datasetFrame(ds)
	if err != nil {
		n.logf("cluster %s: manifest build for room %q: %v", n.id, req.Room, err)
		return fp, false
	}
	fp = sha256.Sum256(wire.MarshalBody(data))
	if !force && st.dataFP == fp {
		st.dataPos = pos
		return fp, false
	}
	req.Node, req.Rows, req.Manifests = data.Node, data.Rows, data.Manifests
	return fp, true
}

// datasetFrame puts a dataset's rows, as exported, and the manifest of
// every blob they name into the dataset part of a replication frame —
// rows and manifests only, never payload bytes, so a forced resend of an
// unchanged room costs one manifest-sized frame and zero chunks.
func (n *Node) datasetFrame(ds *mediadb.Dataset) (*proto.ReplicateReq, error) {
	f := &proto.ReplicateReq{DocID: ds.DocID, Node: n.id, Rows: ds.Rows}
	for _, h := range ds.Handles() {
		chunks, err := n.db.DB().BlobManifest(h)
		if err != nil {
			return nil, err
		}
		f.Manifests = append(f.Manifests, proto.BlobManifest{Digest: h.Digest, Length: h.Length, Chunks: chunks})
	}
	return f, nil
}

// adoptDataset is the receiving side: adopt the frame's rows, pulling
// each payload this node's CAS cannot assemble locally back from the
// sender by chunk digest. Adoption is idempotent — a resend of an
// unchanged dataset touches no rows and pulls no chunks.
func (n *Node) adoptDataset(ctx context.Context, req *proto.ReplicateReq) error {
	if n.db == nil {
		return fmt.Errorf("cluster %s: no database to sync into", n.id)
	}
	manifests := make(map[blob.Digest]*proto.BlobManifest, len(req.Manifests))
	for i := range req.Manifests {
		manifests[req.Manifests[i].Digest] = &req.Manifests[i]
	}
	ds := &mediadb.Dataset{DocID: req.DocID, Rows: req.Rows}

	var chunksPulled, bytesPulled int64
	ensure := func(h blob.Handle) error {
		mi, ok := manifests[h.Digest]
		if !ok {
			return fmt.Errorf("cluster: sync of %q ships no manifest for %s", req.Room, h)
		}
		missing := n.db.DB().MissingBlobChunks(mi.Chunks)
		data := make(map[blob.Digest][]byte, len(missing))
		for len(missing) > 0 {
			batch := missing
			if len(batch) > fetchChunkBatch {
				batch = batch[:fetchChunkBatch]
			}
			missing = missing[len(batch):]
			chunks, err := n.fetchChunks(ctx, req.Node, batch)
			if err != nil {
				return err
			}
			for i, cd := range batch {
				if len(chunks[i]) == 0 {
					return fmt.Errorf("cluster: node %s no longer holds chunk %x", req.Node, cd[:8])
				}
				data[cd] = chunks[i]
				chunksPulled++
				bytesPulled += int64(len(chunks[i]))
			}
		}
		// The reference this put returns is AdoptDataset's: it releases
		// it once the rows that hold the handle are written.
		_, err := n.db.DB().PutBlobFromChunks(h.Digest, mi.Length, mi.Chunks, data)
		return err
	}
	adopted, err := n.db.AdoptDataset(ds, ensure)
	if err != nil {
		return err
	}
	if adopted > 0 || chunksPulled > 0 {
		n.logf("cluster %s: adopted %d rows of %q from %s (%d chunks, %d bytes pulled)",
			n.id, adopted, req.Room, req.Node, chunksPulled, bytesPulled)
	}
	n.syncRowsAdopted.Add(int64(adopted))
	n.syncChunksPulled.Add(chunksPulled)
	n.syncChunkBytes.Add(bytesPulled)
	return nil
}

// fetchChunks pulls one batch of chunks from the named peer over the
// control link.
func (n *Node) fetchChunks(ctx context.Context, from string, digests []blob.Digest) ([][]byte, error) {
	var resp proto.FetchChunksResp
	if err := n.callPeer(ctx, from, proto.MNodeFetchChunks, &proto.FetchChunksReq{Node: n.id, Digests: digests}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Chunks) != len(digests) {
		return nil, fmt.Errorf("cluster: asked %s for %d chunks, got %d", from, len(digests), len(resp.Chunks))
	}
	return resp.Chunks, nil
}

// handleFetchChunks serves a chunk batch by digest — the sender side of
// the standby's pull. Unknown digests return empty entries; the puller
// treats that as a hard error for chunks it was just promised.
func (n *Node) handleFetchChunks(ctx context.Context, p *wire.Peer, req *proto.FetchChunksReq) (*proto.FetchChunksResp, error) {
	if n.db == nil {
		return nil, fmt.Errorf("cluster %s: no database to serve chunks from", n.id)
	}
	if len(req.Digests) > 4*fetchChunkBatch {
		return nil, fmt.Errorf("cluster: chunk batch of %d exceeds the %d limit", len(req.Digests), 4*fetchChunkBatch)
	}
	resp := &proto.FetchChunksResp{Chunks: make([][]byte, len(req.Digests))}
	for i, cd := range req.Digests {
		if chunk, err := n.db.DB().GetBlobChunk(cd); err == nil {
			resp.Chunks[i] = chunk
		}
	}
	return resp, nil
}
