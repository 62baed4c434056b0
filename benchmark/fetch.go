package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/store"
	"mmconf/internal/wire"
	"mmconf/internal/workload"
)

// The media workloads: each driver fetches (and, on fetch_cold_rw,
// sometimes writes) objects chosen by its seeded stream. The primary
// operation is one object fetched and decoded in the client, or one
// text write acknowledged.

type objKind uint8

const (
	objImage objKind = iota
	objAudio
	objStream
)

// spotChecks is how many payload positions every fetch is compared at.
const spotChecks = 16

// fullCheckEvery: one fetch in this many (and each driver's first
// fullCheckFirst) is re-encoded and SHA-256-compared in full. Hashing
// every payload would cost about as much CPU as serving it and so halve
// the benchmark's sensitivity to the system's own cost.
const (
	fullCheckEvery = 16
	fullCheckFirst = 64
)

// object is one stored multimedia object and what a correct fetch of it
// looks like, recorded at set-up.
type object struct {
	kind  objKind
	id    uint64
	owner int // driver allowed to write its texts, or -1
	w, h  int
	size  int               // payload bytes
	sum   [sha256.Size]byte // of the payload
	spots [spotChecks]struct {
		off int // payload offset (past the raster header for images)
		b   byte
	}
	// layerSum[L] digests the raster a client must reconstruct from the
	// stream's first L layers (streams only).
	layerSum [maxStreamLayers + 1]uint64
}

// maxStreamLayers is the longest GetCmp prefix multires_view asks for.
const maxStreamLayers = 3

// rasterHeader is image.Gray's encoded header length.
const rasterHeader = 12

// describe records the payload facts later fetches are checked against.
func (o *object) describe(payload []byte) {
	o.size = len(payload)
	o.sum = sha256.Sum256(payload)
	lo := 0
	if o.kind == objImage {
		lo = rasterHeader
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(o.sum[:8]) >> 1)))
	for i := range o.spots {
		off := lo + rng.Intn(len(payload)-lo)
		o.spots[i].off, o.spots[i].b = off, payload[off]
	}
}

// pixDigest is an order-sensitive 64-bit digest of a raster's exact
// float64 pixels: equal digests on equal dimensions mean byte-identical
// rasters for every purpose of this check.
func pixDigest(g *image.Gray) uint64 {
	h := uint64(14695981039346656037) ^ uint64(g.W)<<32 ^ uint64(g.H)
	for _, v := range g.Pix {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// fetchDriver is one closed-loop caller: a conferencing client for
// reads and a bare wire connection for db.putImageTexts, which the
// client library does not wrap.
type fetchDriver struct {
	cl    *client.Client
	raw   *wire.Client
	gen   *fetchGen
	texts map[uint64]string // last texts this driver wrote, by image id
	reads int
	wrote int
}

type fetchInst struct {
	name    string
	s       *sut
	seed    int64
	objs    []object
	drivers [numDrivers]*fetchDriver
	// set-up measurements for the blob layer
	putBytes   int64
	putSeconds float64
}

func (f *fetchInst) system() *sut { return f.s }
func (f *fetchInst) close()       { f.s.close() }

func (f *fetchInst) finish() []string { return nil } // every op is verified as it completes

func (f *fetchInst) op(driver int) (opKind, time.Duration, error) {
	d := f.drivers[driver]
	op := d.gen.next()
	o := &f.objs[op.Obj]
	if op.Write {
		_, took, err := f.write(d, driver, o)
		return opWrite, took, err
	}
	_, took, err := f.read(d, driver, o, op.Layers)
	return opRead, took, err
}

// write sets new texts on o and returns when the call started and how
// long it took.
func (f *fetchInst) write(d *fetchDriver, driver int, o *object) (time.Time, time.Duration, error) {
	d.wrote++
	texts := fmt.Sprintf("d%d-%07d", driver, d.wrote)
	t0 := time.Now()
	err := d.raw.CallCtx(context.Background(), proto.MPutImageTexts, &proto.PutImageTextsReq{ID: o.id, Texts: texts}, nil)
	took := time.Since(t0)
	if err == nil {
		d.texts[o.id] = texts
	}
	return t0, took, err
}

// read fetches o through the client library, verifies what came back,
// and returns when the client call started and how long it took
// (verification excluded).
func (f *fetchInst) read(d *fetchDriver, driver int, o *object, layers int) (time.Time, time.Duration, error) {
	d.reads++
	full := d.reads <= fullCheckFirst || d.reads%fullCheckEvery == 0
	t0 := time.Now()
	switch o.kind {
	case objImage:
		g, texts, err := d.cl.GetImage(o.id)
		took := time.Since(t0)
		if err != nil {
			return t0, took, err
		}
		if o.owner == driver && texts != d.texts[o.id] {
			return t0, took, fmt.Errorf("image %d: texts %q, last written %q", o.id, texts, d.texts[o.id])
		}
		return t0, took, o.checkRaster(g, full)
	case objAudio:
		pcm, _, _, err := d.cl.GetAudio(o.id)
		took := time.Since(t0)
		if err != nil {
			return t0, took, err
		}
		return t0, took, o.checkBytes(pcm, full)
	default:
		g, _, err := d.cl.GetCmp(o.id, layers)
		took := time.Since(t0)
		if err != nil {
			return t0, took, err
		}
		if g.W != o.w || g.H != o.h || pixDigest(g) != o.layerSum[layers] {
			return t0, took, fmt.Errorf("stream %d at %d layers: raster differs from a local decode of the same prefix", o.id, layers)
		}
		return t0, took, nil
	}
}

func (o *object) checkRaster(g *image.Gray, full bool) error {
	if g.W != o.w || g.H != o.h {
		return fmt.Errorf("image %d: %dx%d, stored %dx%d", o.id, g.W, g.H, o.w, o.h)
	}
	for _, s := range o.spots {
		if g.Pix[s.off-rasterHeader] != float64(s.b)/255 {
			return fmt.Errorf("image %d: pixel %d differs from the stored payload", o.id, s.off-rasterHeader)
		}
	}
	if full && sha256.Sum256(g.Encode()) != o.sum {
		return fmt.Errorf("image %d: SHA-256 differs from the stored payload", o.id)
	}
	return nil
}

func (o *object) checkBytes(data []byte, full bool) error {
	if len(data) != o.size {
		return fmt.Errorf("audio %d: %d bytes, stored %d", o.id, len(data), o.size)
	}
	for _, s := range o.spots {
		if data[s.off] != s.b {
			return fmt.Errorf("audio %d: byte %d differs from the stored payload", o.id, s.off)
		}
	}
	if full && sha256.Sum256(data) != o.sum {
		return fmt.Errorf("audio %d: SHA-256 differs from the stored payload", o.id)
	}
	return nil
}

// connectDrivers dials each driver's connections and seeds its stream.
// A driver reads every object nobody writes plus the ones it writes
// itself, and writes only its own.
func (f *fetchInst) connectDrivers(writeShare float64, layers int) error {
	for i := range f.drivers {
		var readable, own []int
		for j, o := range f.objs {
			if o.owner == i {
				own = append(own, j)
			}
			if o.owner == i || o.owner < 0 {
				readable = append(readable, j)
			}
		}
		d := &fetchDriver{gen: newFetchGen(f.seed, i, readable, own, writeShare, layers), texts: make(map[uint64]string)}
		var err error
		if d.cl, err = f.s.dial(fmt.Sprintf("dr%d", i), nil); err != nil {
			return err
		}
		if writeShare > 0 {
			if d.raw, err = f.s.dialRaw(nil); err != nil {
				return err
			}
		}
		f.drivers[i] = d
	}
	return nil
}

// hotRecords is how many populated patient records the hot and
// multi-resolution workloads store.
const hotRecords = 8

// recordCount: the smoke run makes do with two records.
func recordCount(smoke bool) int {
	if smoke {
		return 2
	}
	return hotRecords
}

// recordMedia is the generated media of one patient record: what
// workload.Populate stores for it (64 KiB CT, 36 KiB X-ray, multi-layer
// CT stream, 27 KiB commentary), read back as plain payloads, plus one
// 512x512 raster.
type recordMedia struct {
	ct, xray, big        []byte
	voice, voiceSectors  []byte
	voiceName, cmpName   string
	cmpHeader, cmpStream []byte
}

// generateRecords runs workload.Populate once per record into a scratch
// store and reads the payloads back. Generating media (phantoms, the
// wavelet encode, speech synthesis) is the benchmark making its inputs;
// it happens once per run and is not part of setup_s, which times only
// what the system does with them.
func generateRecords(seed int64, n int) ([]recordMedia, error) {
	dir, err := makeTemp("generate")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	m, err := mediadb.Open(db)
	if err != nil {
		return nil, err
	}
	out := make([]recordMedia, n)
	for i := range out {
		rec, err := workload.Populate(m, fmt.Sprintf("p%d", i), subSeed(seed, "record", i))
		if err != nil {
			return nil, err
		}
		ct, err := m.GetImage(rec.CTID)
		if err != nil {
			return nil, err
		}
		xray, err := m.GetImage(rec.XrayID)
		if err != nil {
			return nil, err
		}
		voice, err := m.GetAudio(rec.VoiceID)
		if err != nil {
			return nil, err
		}
		cmp, err := m.GetCmp(rec.CmpID)
		if err != nil {
			return nil, err
		}
		big, err := image.Phantom(512, 512, subSeed(seed, "raster", i))
		if err != nil {
			return nil, err
		}
		out[i] = recordMedia{
			ct: ct.Data, xray: xray.Data, big: big.Encode(),
			voice: voice.Data, voiceSectors: voice.Sectors, voiceName: voice.Filename,
			cmpName: cmp.Filename, cmpHeader: cmp.Header, cmpStream: cmp.Data,
		}
	}
	return out, nil
}

// hotItem is one fetch_hot object ready to store: its payload and what
// a correct fetch of it looks like (all but the id, known once stored).
type hotItem struct {
	payload, sectors []byte // sectors: audio only
	name             string // audio only
	expect           object
}

func hotItems(recs []recordMedia) ([]hotItem, error) {
	var items []hotItem
	for _, rec := range recs {
		for _, payload := range [][]byte{rec.ct, rec.xray, rec.big} {
			g, err := image.Decode(payload)
			if err != nil {
				return nil, err
			}
			it := hotItem{payload: payload, expect: object{kind: objImage, owner: -1, w: g.W, h: g.H}}
			it.expect.describe(payload)
			items = append(items, it)
		}
		it := hotItem{payload: rec.voice, sectors: rec.voiceSectors, name: rec.voiceName, expect: object{kind: objAudio, owner: -1}}
		it.expect.describe(rec.voice)
		items = append(items, it)
	}
	return items, nil
}

// prepareFetchHot: eight records' rasters and commentary plus one
// 512x512 raster each, ~3 MiB against the default 64 MiB object cache,
// so after warm-up every fetch is a cache hit.
func prepareFetchHot(seed int64, smoke bool) (func() (instance, error), error) {
	recs, err := generateRecords(seed, recordCount(smoke))
	if err != nil {
		return nil, err
	}
	items, err := hotItems(recs)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) {
		f := &fetchInst{name: wlFetchHot, seed: seed}
		var err error
		f.s, err = newServerSUT(wlFetchHot, 0, func(m *mediadb.MediaDB) error {
			for _, it := range items {
				o := it.expect
				var err error
				if o.kind == objImage {
					o.id, err = m.PutImage(100, "", 0.05, it.payload)
				} else {
					o.id, err = m.PutAudio(it.name, it.sectors, it.payload)
				}
				if err != nil {
					return err
				}
				f.objs = append(f.objs, o)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := f.connectDrivers(0, 0); err != nil {
			f.s.close()
			return nil, err
		}
		return f, nil
	}, nil
}

// Cold working set: 512 distinct 64 KiB rasters + 128 distinct 128 KiB
// audio objects = 48 MiB against an 8 MiB object cache, so about one
// fetch in six hits.
const (
	coldImages     = 512
	coldAudio      = 128
	coldRasterSide = 256
	coldAudioBytes = 128 << 10
	coldCacheBytes = 8 << 20
	coldWriteShare = 0.10
)

// prepareFetchColdRW generates its noise inside the timed set-up: the
// payloads are too many to keep alive across set-ups without showing up
// in heap_live_mb, and making them costs a fraction of storing them.
// The smoke run stores a quarter of the objects (still over the cache).
func prepareFetchColdRW(seed int64, smoke bool) (func() (instance, error), error) {
	images, audio := coldImages, coldAudio
	if smoke {
		images, audio = images/4, audio/4
	}
	return func() (instance, error) { return setupCold(seed, images, audio) }, nil
}

func setupCold(seed int64, images, audio int) (instance, error) {
	f := &fetchInst{name: wlFetchColdRW, seed: seed}
	var err error
	f.s, err = newServerSUT(wlFetchColdRW, coldCacheBytes, func(m *mediadb.MediaDB) error {
		rng := rand.New(rand.NewSource(subSeed(seed, "noise", 0)))
		var put time.Duration
		for i := 0; i < images+audio; i++ {
			// Each driver owns (reads and writes the texts of) half the
			// images; audio is read by both and written by nobody.
			o := object{kind: objImage, owner: i * numDrivers / images, w: coldRasterSide, h: coldRasterSide}
			var payload []byte
			if i < images {
				payload = noiseRaster(rng, coldRasterSide, coldRasterSide)
			} else {
				o.kind, o.owner = objAudio, -1
				payload = noiseBytes(rng, coldAudioBytes)
			}
			t0 := time.Now()
			var err error
			if o.kind == objImage {
				o.id, err = m.PutImage(100, "", 0.05, payload)
			} else {
				o.id, err = m.PutAudio(fmt.Sprintf("noise-%d.pcm", i), []byte{0}, payload)
			}
			put += time.Since(t0)
			if err != nil {
				return err
			}
			o.describe(payload)
			f.putBytes += int64(len(payload))
			f.objs = append(f.objs, o)
		}
		f.putSeconds = put.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := f.connectDrivers(coldWriteShare, 0); err != nil {
		f.s.close()
		return nil, err
	}
	return f, nil
}

// prepareMultiresView: the eight records' multi-layer CT streams,
// fetched at 1-3 layers and reconstructed in the client. The reference
// reconstructions each fetch is compared with are decoded here, once.
func prepareMultiresView(seed int64, smoke bool) (func() (instance, error), error) {
	recs, err := generateRecords(seed, recordCount(smoke))
	if err != nil {
		return nil, err
	}
	expect := make([]object, len(recs))
	for i, rec := range recs {
		o := &expect[i]
		o.kind, o.owner = objStream, -1
		full, err := compress.Unmarshal(rec.cmpHeader, rec.cmpStream)
		if err != nil {
			return nil, err
		}
		for l := 1; l <= maxStreamLayers; l++ {
			g, err := decodePrefix(rec.cmpHeader, rec.cmpStream[:full.PrefixBytes(l)])
			if err != nil {
				return nil, err
			}
			o.w, o.h = g.W, g.H
			o.layerSum[l] = pixDigest(g)
		}
	}
	return func() (instance, error) {
		f := &fetchInst{name: wlMultiresView, seed: seed}
		var err error
		f.s, err = newServerSUT(wlMultiresView, 0, func(m *mediadb.MediaDB) error {
			for i, rec := range recs {
				id, err := m.PutCmp(rec.cmpName, rec.cmpHeader, rec.cmpStream)
				if err != nil {
					return err
				}
				o := expect[i]
				o.id = id
				f.objs = append(f.objs, o)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := f.connectDrivers(0, maxStreamLayers); err != nil {
			f.s.close()
			return nil, err
		}
		return f, nil
	}, nil
}

// decodePrefix is the reference reconstruction a client's GetCmp result
// is compared with: the same header, the same body prefix, decoded
// locally.
func decodePrefix(header, prefix []byte) (*image.Gray, error) {
	s, err := compress.Unmarshal(header, prefix)
	if err != nil {
		return nil, err
	}
	return s.Decode(0)
}

// objectWhere returns the first object satisfying pred (probes ask for
// "the 64 KiB raster", "an audio object").
func (f *fetchInst) objectWhere(pred func(*object) bool) *object {
	for i := range f.objs {
		if pred(&f.objs[i]) {
			return &f.objs[i]
		}
	}
	return nil
}
