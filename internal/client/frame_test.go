package client

import (
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// allocated is what f allocates in the whole process, the server's
// handling of the call included: the least of five runs.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// fetchSlack is what a warm fetch may allocate beside its raster: the
// reply's small fields, the request, the stream header's structs.
const fetchSlack = 4 << 10

// A warm GetImage allocates the raster it returns and small change: the
// reply, a frame larger than the connection's reader for a 256×256
// image, is read into a pooled frame that goes back once decoded.
func TestGetImageAllocatesOnlyTheRaster(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	c, rec := pipeSystem(t)
	g, _, err := c.GetImage(rec.CTID)
	if err != nil || g.W != 256 || g.H != 256 {
		t.Fatalf("GetImage: %v", err)
	}
	raster := uint64(8 * g.W * g.H)
	if got := allocated(func() { c.GetImage(rec.CTID) }); got > raster+fetchSlack {
		t.Errorf("a warm GetImage allocated %d bytes, more than its raster (%d) and %d", got, raster, fetchSlack)
	}
}

// A warm GetCmp allocates the raster it returns and small change at any
// layer count: the reply goes to a pooled frame (copied out of the
// reader at one and two layers, read whole past it at three), and the
// stream decoder's working state comes from a pool.
func TestGetCmpAllocatesOnlyTheRaster(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	c, rec := pipeSystem(t)
	for layers := 1; layers <= 3; layers++ {
		g, _, err := c.GetCmp(rec.CmpID, layers)
		if err != nil {
			t.Fatalf("GetCmp(%d): %v", layers, err)
		}
		raster := uint64(8 * g.W * g.H)
		if got := allocated(func() { c.GetCmp(rec.CmpID, layers) }); got > raster+fetchSlack {
			t.Errorf("a warm GetCmp at %d layers allocated %d bytes, more than its raster (%d) and %d", layers, got, raster, fetchSlack)
		}
	}
}

// A released reply reads as poison (this package's TestMain poisons
// what goes back to the pool): after Release, nothing of the payload is
// left to read, whether the reply was read whole past the connection's
// reader (an image) or copied out of it (a one-layer stream).
func TestReleasedReplyReadsPoison(t *testing.T) {
	c, rec := pipeSystem(t)
	ctx := context.Background()
	want, err := c.GetImageBytes(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	var img proto.GetImageResp
	img.Pool()
	if err := transport(c).CallCtx(ctx, proto.MGetImage, &proto.GetImageReq{ID: rec.CTID}, &img); err != nil {
		t.Fatal(err)
	}
	var cmp proto.GetCmpResp
	cmp.Pool()
	if err := transport(c).CallCtx(ctx, proto.MGetCmp, &proto.GetCmpReq{ID: rec.CmpID, MaxLayers: 1}, &cmp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Data, want) {
		t.Fatal("the image reply differs from the image")
	}
	for _, r := range []struct {
		name string
		data []byte
		rel  func()
	}{
		{"image", img.Data, img.Release},
		{"one-layer stream", cmp.Data, cmp.Release},
	} {
		if len(r.data) < 1<<10 || bytes.Count(r.data, []byte{0xA5}) == len(r.data) {
			t.Fatalf("%s: %d bytes, poison before the release", r.name, len(r.data))
		}
		r.rel()
		if n := bytes.Count(r.data, []byte{0xA5}); n != len(r.data) {
			t.Errorf("%s: %d of %d bytes still read after the release", r.name, len(r.data)-n, len(r.data))
		}
	}
}

// What a fetch hands out for keeps is never released: GetImageBytes'
// payload, GetAudio's, a payload the media buffer filed, and a GetImage
// relayed the way a cluster node relays a request (CallRaw, then the
// owner's bytes sent on by reference). A hundred further fetches, which
// release their frames into the pool, leave them all as they were, and
// every relayed raster decodes whole.
func TestKeptPayloadsOutliveLaterFetches(t *testing.T) {
	srv, m, recs := testServer(t, "p1")
	rec := recs[0]
	direct := pipeClient(t, srv, "alice")
	buffered := pipeClient(t, srv, "bob")
	buffered.buffer.Store(newMediaBuffer(8 << 20))

	relay := wire.NewServer()
	upstream := pipeTransport(t, srv)
	relay.Register(proto.MGetImage, func(ctx context.Context, _ *wire.Peer, payload []byte) (any, error) {
		body, err := upstream.CallRaw(ctx, proto.MGetImage, payload)
		if err != nil {
			return nil, err
		}
		return wire.RawResult(body), nil
	})
	t.Cleanup(func() { relay.Close() })
	relayed := pipeClient(t, relay, "carol")

	raster, _, err := direct.GetImage(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string][]byte{}
	if kept["GetImageBytes"], err = direct.GetImageBytes(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if kept["GetAudio"], _, _, err = direct.GetAudio(rec.VoiceID); err != nil {
		t.Fatal(err)
	}
	if kept["relayed GetImageBytes"], err = relayed.GetImageBytes(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buffered.GetImage(rec.CTID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buffered.GetCmp(rec.CmpID, 0); err != nil {
		t.Fatal(err)
	}
	_, kept["filed image"] = buffered.buffer.Load().lookup(objectKey{mediadb.ImageTable, rec.CTID})
	_, kept["filed stream"] = buffered.buffer.Load().lookup(objectKey{mediadb.CmpTable, rec.CmpID})
	// What each should read is the stored payload, read from the store.
	img, err := m.GetImage(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	audio, err := m.GetAudio(rec.VoiceID)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := m.GetCmp(rec.CmpID)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"GetImageBytes": img.Data, "relayed GetImageBytes": img.Data, "filed image": img.Data,
		"GetAudio": audio.Data, "filed stream": stream.Data,
	}
	for name, b := range kept {
		if !bytes.Equal(b, want[name]) {
			t.Fatalf("%s: %d bytes fetched, not the %d stored", name, len(b), len(want[name]))
		}
	}

	for i := range 100 {
		for _, c := range []*Client{direct, relayed} {
			g, _, err := c.GetImage(rec.CTID)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g.Pix, raster.Pix) {
				t.Fatalf("fetch %d by %s: the raster differs from the first", i, c.user)
			}
		}
		if _, _, err := direct.GetCmp(rec.CmpID, 0); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range kept {
		if !bytes.Equal(b, want[name]) {
			t.Errorf("%s: the payload changed under later fetches", name)
		}
	}
}

// pipeTransport is a bare wire client of srv over net.Pipe, closed with
// the test.
func pipeTransport(t *testing.T, srv interface{ ServeConn(net.Conn) }) *wire.Client {
	t.Helper()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := wire.NewClient(cc)
	t.Cleanup(func() { c.Close() })
	return c
}

// Fetches running at once on one connection each decode their own
// reply: the read loop hands pooled frames to several callers at a time,
// and each goes back to the pool, poisoned, only when its own caller
// releases it.
func TestConcurrentFetchesDecodeTheirOwnReplies(t *testing.T) {
	c, rec := pipeSystem(t)
	img, _, err := c.GetImage(rec.CTID)
	if err != nil {
		t.Fatal(err)
	}
	var streams [4]*image.Gray
	for layers := 1; layers < len(streams); layers++ {
		if streams[layers], _, err = c.GetCmp(rec.CmpID, layers); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				layers := 1 + (w+i)%3
				g, _, err := c.GetCmp(rec.CmpID, layers)
				if err != nil || !slices.Equal(g.Pix, streams[layers].Pix) {
					t.Errorf("GetCmp at %d layers: %v, or a raster unlike the first", layers, err)
					return
				}
				if g, _, err = c.GetImage(rec.CTID); err != nil || !slices.Equal(g.Pix, img.Pix) {
					t.Errorf("GetImage: %v, or a raster unlike the first", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
