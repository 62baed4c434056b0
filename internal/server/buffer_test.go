package server

import (
	"bytes"
	"context"
	"net"
	"testing"

	"mmconf/internal/client"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// The conditional-fetch suite: a client with a media buffer sends
// IfDigestAbsent on repeat fetches, the server answers NotModified with
// the payload elided, and the client serves the bytes its buffer holds —
// transparently to callers.

// dialBuffered dials a client whose media buffer comes from a Join, on a
// server with push-prefetch off: no prefetch push fills the buffer
// behind the test's back.
func dialBuffered(t *testing.T) (*client.Client, *workload.PopulatedRecord) {
	t.Helper()
	_, addr, rec := testSystemOpts(t, Options{PrefetchBudget: -1})
	c := dial(t, addr, "alice")
	if _, _, err := c.Join("consult", "p1", 8<<20); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

func TestConditionalGetImage(t *testing.T) {
	c, rec := dialBuffered(t)

	first, err := c.GetImageBytes(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.BufferStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cold fetch stats %+v, want 0 hits / 1 miss", st)
	}
	second, err := c.GetImageBytes(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat fetch returned different bytes")
	}
	if st := c.BufferStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("repeat fetch stats %+v, want 1 hit / 1 miss", st)
	}
	// The decoded path shares the buffer with the raw path.
	if _, _, err := c.GetImage(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if st := c.BufferStats(); st.Hits != 2 {
		t.Fatalf("decoded fetch missed the cache: %+v", st)
	}
}

func TestConditionalGetAudioAndCmp(t *testing.T) {
	c, rec := dialBuffered(t)

	pcm1, _, _, err := c.GetAudio(rec.VoiceID)
	if err != nil {
		t.Fatal(err)
	}
	pcm2, sectors, filename, err := c.GetAudio(rec.VoiceID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pcm1, pcm2) || len(sectors) == 0 || filename == "" {
		t.Fatalf("repeat audio fetch lost data: %d vs %d bytes, %d sectors, %q",
			len(pcm1), len(pcm2), len(sectors), filename)
	}
	if st := c.BufferStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("audio stats %+v, want 1 hit / 1 miss", st)
	}

	// Full-stream Cmp fetches are conditional; truncated ones are not
	// (the digest addresses the whole stream) and never poison the
	// buffer.
	g1, n1, err := c.GetCmp(rec.CmpID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetCmp(rec.CmpID, 1); err != nil {
		t.Fatal(err)
	}
	g2, n2, err := c.GetCmp(rec.CmpID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || g1.W != g2.W || g1.H != g2.H {
		t.Fatalf("cached full-stream decode differs: %d/%d bytes", n1, n2)
	}
	st := c.BufferStats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("cmp stats %+v, want 2 hits / 2 misses (the truncated fetch bypasses the buffer)", st)
	}
}

// TestConditionalFetchWireContract pins the server's side of the
// protocol down at the frame level: a matching IfDigestAbsent elides
// exactly the payload (scalars and digest still present), a stale
// digest transfers the full object, and the shared response cache is
// never mutated by the elision.
func TestConditionalFetchWireContract(t *testing.T) {
	_, addr, rec := testSystem(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rpc := wire.NewClient(conn)
	t.Cleanup(func() { rpc.Close() })
	ctx := context.Background()

	var full proto.GetImageResp
	if err := rpc.CallCtx(ctx, proto.MGetImage, &proto.GetImageReq{ID: rec.CTID}, &full); err != nil {
		t.Fatal(err)
	}
	if full.NotModified || len(full.Data) == 0 || len(full.Digest) == 0 {
		t.Fatalf("unconditional fetch: notModified=%v, %d data, %d digest",
			full.NotModified, len(full.Data), len(full.Digest))
	}

	var elided proto.GetImageResp
	if err := rpc.CallCtx(ctx, proto.MGetImage, &proto.GetImageReq{ID: rec.CTID, IfDigestAbsent: full.Digest}, &elided); err != nil {
		t.Fatal(err)
	}
	if !elided.NotModified || len(elided.Data) != 0 {
		t.Fatalf("matching digest: notModified=%v, %d data bytes", elided.NotModified, len(elided.Data))
	}
	if !bytes.Equal(elided.Digest, full.Digest) || elided.Quality != full.Quality {
		t.Fatalf("elided response lost scalars: %+v", elided)
	}

	stale := bytes.Repeat([]byte{0xAB}, len(full.Digest))
	var refreshed proto.GetImageResp
	if err := rpc.CallCtx(ctx, proto.MGetImage, &proto.GetImageReq{ID: rec.CTID, IfDigestAbsent: stale}, &refreshed); err != nil {
		t.Fatal(err)
	}
	if refreshed.NotModified || !bytes.Equal(refreshed.Data, full.Data) {
		t.Fatalf("stale digest: notModified=%v, %d data bytes", refreshed.NotModified, len(refreshed.Data))
	}

	// Truncated Cmp fetches never match — the digest names the full
	// stream.
	var cmpFull proto.GetCmpResp
	if err := rpc.CallCtx(ctx, proto.MGetCmp, &proto.GetCmpReq{ID: rec.CmpID}, &cmpFull); err != nil {
		t.Fatal(err)
	}
	var cmpTrunc proto.GetCmpResp
	if err := rpc.CallCtx(ctx, proto.MGetCmp, &proto.GetCmpReq{ID: rec.CmpID, MaxLayers: 1, IfDigestAbsent: cmpFull.Digest}, &cmpTrunc); err != nil {
		t.Fatal(err)
	}
	if cmpTrunc.NotModified || len(cmpTrunc.Data) == 0 {
		t.Fatalf("truncated cmp fetch: notModified=%v, %d data bytes", cmpTrunc.NotModified, len(cmpTrunc.Data))
	}
}
