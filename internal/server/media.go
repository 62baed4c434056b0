package server

import (
	"bytes"
	"context"
	"fmt"

	"mmconf/internal/blob"
	"mmconf/internal/media/compress"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// --- database methods ---

func (s *Server) handleListDocuments(ctx context.Context, p *wire.Peer, req *proto.ListDocumentsReq) (*proto.ListDocumentsResp, error) {
	ids, titles, err := s.db.ListDocuments()
	if err != nil {
		return nil, err
	}
	return &proto.ListDocumentsResp{IDs: ids, Titles: titles}, nil
}

func (s *Server) handleGetDocument(ctx context.Context, p *wire.Peer, req *proto.GetDocumentReq) (*proto.GetDocumentResp, error) {
	doc, err := s.db.GetDocument(req.DocID)
	if err != nil {
		return nil, err
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &proto.GetDocumentResp{DocData: data}, nil
}

func (s *Server) handleGetImage(ctx context.Context, p *wire.Peer, req *proto.GetImageReq) (*proto.GetImageResp, error) {
	return s.getImage(req.ID, req.IfDigestAbsent)
}

// digestMatches reports whether a conditional request's known digest
// equals the stored object's — the payload can then be elided.
func digestMatches(cond, digest []byte) bool {
	return len(cond) > 0 && bytes.Equal(cond, digest)
}

// payload resolves an immutable blob through the digest-keyed payload
// cache (straight from the store when caching is off). Under content
// addressing a cached payload stays valid for as long as it is
// resident, so nothing ever invalidates one; whatever can change about
// an object lives in its row, which every handler reads afresh.
func (s *Server) payload(h blob.Handle) ([]byte, error) {
	if s.objects == nil {
		return s.db.DB().GetBlob(h)
	}
	return s.objects.Fill(h.Digest, func() ([]byte, error) { return s.db.DB().GetBlob(h) })
}

// getImage answers a GetImage for cond (a conditional request's digest,
// nil for none): row first, and the raster only if cond does not
// already name it. The demand path and the QoS loop's push-prefetch
// share it and the cache under it, so a pre-push never doubles the
// store read the first demand would have done.
func (s *Server) getImage(id uint64, cond []byte) (*proto.GetImageResp, error) {
	r, err := s.db.GetImageRow(id)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetImageResp{Quality: r.Quality, Texts: r.Texts, CM: r.CM, Digest: r.Data.Digest[:]}
	if digestMatches(cond, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(r.Data); err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) handleGetAudio(ctx context.Context, p *wire.Peer, req *proto.GetAudioReq) (*proto.GetAudioResp, error) {
	r, err := s.db.GetAudioRow(req.ID)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetAudioResp{Filename: r.Filename, Sectors: r.Sectors, Digest: r.Data.Digest[:]}
	if digestMatches(req.IfDigestAbsent, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(r.Data); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleGetCmp serves a compressed stream, truncating the body to the
// requested layer count so low-bandwidth clients transfer less. Every
// prefix is a slice of the one cached full stream: viewers at different
// resolutions share a single store read and a single resident copy.
func (s *Server) handleGetCmp(ctx context.Context, p *wire.Peer, req *proto.GetCmpReq) (*proto.GetCmpResp, error) {
	r, err := s.db.GetCmpRow(req.ID)
	if err != nil {
		return nil, err
	}
	resp := &proto.GetCmpResp{Filename: r.Filename, Digest: r.Data.Digest[:]}
	// The header stays in the reply even when the body is elided — it is
	// tiny and the layer map may be what the client is after.
	if resp.Header, err = s.payload(r.Header); err != nil {
		return nil, err
	}
	// The digest addresses the full stream, so only an untruncated
	// response (MaxLayers == 0) can match a conditional request.
	if req.MaxLayers == 0 && digestMatches(req.IfDigestAbsent, resp.Digest) {
		resp.NotModified = true
		return resp, nil
	}
	if resp.Data, err = s.payload(r.Data); err != nil {
		return nil, err
	}
	if req.MaxLayers > 0 {
		n, err := compress.PrefixLen(resp.Header, req.MaxLayers)
		if err != nil {
			return nil, fmt.Errorf("server: stream %d: %w", req.ID, err)
		}
		if n > len(resp.Data) {
			return nil, fmt.Errorf("server: stream %d is corrupt: %d-layer prefix (%d bytes) exceeds body (%d bytes)",
				req.ID, req.MaxLayers, n, len(resp.Data))
		}
		resp.Data = resp.Data[:n]
	}
	return resp, nil
}

func (s *Server) handlePutImageTexts(ctx context.Context, p *wire.Peer, req *proto.PutImageTextsReq) (*wire.None, error) {
	return nil, s.db.UpdateImageTexts(req.ID, req.Texts)
}
