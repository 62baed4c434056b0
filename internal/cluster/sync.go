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

// This file is the dataset half of standby replication: alongside each
// room's event log (links.go), the owner ships the room's media dataset
// — table rows with payloads by digest, plus the chunk manifests behind
// them. The standby adopts the rows and pulls only the chunks its own
// CAS is missing, so a node can join with an empty store and converge
// by transferring exactly the bytes it lacks; payloads shared across
// rooms or already present from any earlier sync cost nothing. This is
// what removed the "equivalently seeded databases" restriction the
// cluster launched with.

// fetchChunkBatch bounds one MNodeFetchChunks request: 256 chunks of at
// most 64 KiB stay far inside the 64 MiB frame cap.
const fetchChunkBatch = 256

// syncDataset ships the room's document dataset to the standby when it
// changed since the last sync to that node. Three checks, cheapest
// first: the store's change position (unmoved since the last export that
// was shipped or found identical means the export would be byte-identical,
// so return before making it), then the fingerprint of the exported frame
// (the position is store-wide; a write to some other document moves it),
// then the send. force — the flush sent the whole log: a first one, a
// retry, a standby change — bypasses both comparisons and always ships.
func (n *Node) syncDataset(roomName, docID, standby string, force bool) {
	if docID == "" || n.db == nil {
		return
	}
	// The position is read here, BEFORE the export, and handed down: a
	// write landing while the export runs is then counted past the cursor
	// and the next flush exports again. Read after the export, it could
	// be counted without having been seen.
	pos := n.db.DB().Position()
	if !force {
		n.repMu.Lock()
		st := n.rep[roomName]
		unchanged := st != nil && st.dataStandby == standby && st.dataPos == pos
		n.repMu.Unlock()
		if unchanged {
			n.datasetUnchanged.Add(1)
			return
		}
	}
	n.exportAndShip(roomName, docID, standby, force, pos)
}

// exportAndShip exports the dataset, fingerprints the frame and sends it
// unless (not forced) the standby already saw that exact frame. pos is
// the store position the caller read before calling; it becomes the
// cursor when the export ships or proves identical, and stays where it
// was when the send fails. The frame carries rows and manifests only —
// never payload bytes — so a forced resend of an unchanged room costs one
// manifest-sized frame and zero chunks.
func (n *Node) exportAndShip(roomName, docID, standby string, force bool, pos uint64) {
	n.datasetExports.Add(1)
	ds, err := n.db.ExportDataset(docID)
	if err != nil {
		n.logf("cluster %s: export dataset for room %q: %v", n.id, roomName, err)
		return
	}
	req, err := n.buildSyncReq(roomName, ds)
	if err != nil {
		n.logf("cluster %s: manifest build for room %q: %v", n.id, roomName, err)
		return
	}
	fp := sha256.Sum256(wire.MarshalBody(req))
	n.repMu.Lock()
	st := n.repStateLocked(roomName)
	if !force && st.dataStandby == standby && st.dataFP == fp {
		st.dataPos = pos
		n.repMu.Unlock()
		return
	}
	n.repMu.Unlock()
	var resp proto.SyncManifestResp
	if err := n.callPeer(context.Background(), standby, proto.MNodeSyncManifest, req, &resp); err != nil {
		n.logf("cluster %s: dataset sync of %q to %s failed: %v", n.id, roomName, standby, err)
		n.markDirty(roomName)
		return
	}
	n.manifestSyncs.Add(1)
	n.repMu.Lock()
	st.dataStandby = standby
	st.dataFP = fp
	st.dataPos = pos
	n.repMu.Unlock()
}

// buildSyncReq puts a dataset's rows, as exported, and the manifest of
// every blob they name into the wire frame.
func (n *Node) buildSyncReq(roomName string, ds *mediadb.Dataset) (*proto.SyncManifestReq, error) {
	req := &proto.SyncManifestReq{Room: roomName, Node: n.id, DocID: ds.DocID, Rows: make([]proto.SyncRow, len(ds.Rows))}
	for i, r := range ds.Rows {
		req.Rows[i] = proto.SyncRow{Table: r.Table, ID: r.ID, Cells: r.Row}
	}
	for _, h := range ds.Handles() {
		chunks, err := n.db.DB().BlobManifest(h)
		if err != nil {
			return nil, err
		}
		req.Manifests = append(req.Manifests, proto.BlobManifest{Digest: h.Digest, Length: h.Length, Chunks: chunks})
	}
	return req, nil
}

// handleSyncManifest is the standby side: adopt the shipped rows,
// pulling each payload this node's CAS cannot assemble locally back
// from the sender by chunk digest. Adoption is idempotent — a resend of
// an unchanged dataset touches no rows and pulls no chunks.
func (n *Node) handleSyncManifest(ctx context.Context, p *wire.Peer, req *proto.SyncManifestReq) (*proto.SyncManifestResp, error) {
	if n.db == nil {
		return nil, fmt.Errorf("cluster %s: no database to sync into", n.id)
	}
	manifests := make(map[blob.Digest]*proto.BlobManifest, len(req.Manifests))
	for i := range req.Manifests {
		manifests[req.Manifests[i].Digest] = &req.Manifests[i]
	}
	ds := &mediadb.Dataset{DocID: req.DocID, Rows: make([]mediadb.DatasetRow, len(req.Rows))}
	for i, r := range req.Rows {
		ds.Rows[i] = mediadb.DatasetRow{Table: r.Table, ID: r.ID, Row: r.Cells}
	}

	var chunksPulled uint32
	var bytesPulled uint64
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
				bytesPulled += uint64(len(chunks[i]))
			}
		}
		_, err := n.db.DB().PutBlobFromChunks(h.Digest, mi.Length, mi.Chunks, data)
		return err
	}
	adopted, err := n.db.AdoptDataset(ds, ensure)
	if err != nil {
		return nil, err
	}
	if adopted > 0 || chunksPulled > 0 {
		n.logf("cluster %s: adopted %d rows of %q from %s (%d chunks, %d bytes pulled)",
			n.id, adopted, req.Room, req.Node, chunksPulled, bytesPulled)
	}
	n.syncRowsAdopted.Add(int64(adopted))
	n.syncChunksPulled.Add(int64(chunksPulled))
	n.syncChunkBytes.Add(int64(bytesPulled))
	return &proto.SyncManifestResp{
		Node: n.id, RowsAdopted: uint32(adopted),
		ChunksPulled: chunksPulled, ChunkBytesPulled: bytesPulled,
	}, nil
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
