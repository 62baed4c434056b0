package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mmconf/internal/media/dsp"
	"mmconf/internal/media/image"
)

// LayerKind identifies the basis a layer is coded in.
type LayerKind uint8

// Layer kinds: the main approximation is wavelet-coded; residuals are
// coded with a blocked local cosine transform or, alternatively, a full
// wavelet-packet transform ("a wavelet packet or local cosine compression
// algorithm encodes the sequence of compression residuals", §3.3).
const (
	WaveletLayer LayerKind = iota
	CosineLayer
	PacketLayer
)

// Layer is one element of the multi-layer stream.
type Layer struct {
	Kind LayerKind
	// Step is the quantization step the coefficients were coded at.
	Step float64
	// Data is the entropy-coded coefficient payload.
	Data []byte
}

// Stream is a complete multi-layer encoding of one image.
type Stream struct {
	W, H   int
	Levels int // wavelet decomposition depth of the base layer
	Block  int // cosine block size of the residual layers
	Layers []Layer
}

// ResidualBasis selects the basis residual layers are coded in.
type ResidualBasis int

// Residual bases.
const (
	// CosineBasis codes residuals with blocked DCT-II (default).
	CosineBasis ResidualBasis = iota
	// PacketBasis codes residuals with a depth-2 wavelet-packet
	// transform; the image dimensions must be divisible by 4.
	PacketBasis
)

// packetDepth is the wavelet-packet recursion depth for PacketBasis.
const packetDepth = 2

// Options configure Encode.
type Options struct {
	// Levels is the wavelet decomposition depth (default 4).
	Levels int
	// BaseStep is the quantization step of the main approximation
	// (default 0.10 — coarse, so the base layer is small).
	BaseStep float64
	// ResidualSteps are the quantization steps of successive residual
	// layers, typically decreasing (default {0.04, 0.015, 0.005}).
	ResidualSteps []float64
	// Block is the local-cosine block size (default 16).
	Block int
	// Basis selects the residual coding basis (default CosineBasis).
	Basis ResidualBasis
}

func (o *Options) defaults() {
	if o.Levels == 0 {
		o.Levels = 4
	}
	if o.BaseStep == 0 {
		o.BaseStep = 0.10
	}
	if o.ResidualSteps == nil {
		o.ResidualSteps = []float64{0.04, 0.015, 0.005}
	}
	if o.Block == 0 {
		o.Block = 16
	}
}

// maxPixels bounds W·H of a stream at 4096×4096, a full-size radiograph:
// decoding works in the one float64 plane it returns, 128 MiB at the bound
// (a packet layer adds a second), and no header may size an allocation
// beyond that.
const maxPixels = 1 << 24

// maxBlock bounds the local-cosine block size, far above the default 16:
// a tile transform holds two block×block cosine tables (1 MiB at the
// bound) and costs block multiply-adds per pixel.
const maxBlock = 256

// checkGeometry reports whether the stream's dimensions, depth and block
// size describe something the transforms can run on: what Encode demands
// of its options, Unmarshal of a header off the network, and Decode of a
// Stream built by hand.
func (s *Stream) checkGeometry() error {
	if s.W < 1 || s.H < 1 || uint64(s.W)*uint64(s.H) > maxPixels {
		return fmt.Errorf("compress: %dx%d outside 1..%d pixels", s.W, s.H, maxPixels)
	}
	if s.Block < 2 || s.Block > maxBlock {
		return fmt.Errorf("compress: block size %d must be in 2..%d", s.Block, maxBlock)
	}
	return checkLevels(s.W, s.H, s.Levels)
}

// Encode compresses img into a multi-layer stream: one coarsely quantized
// wavelet base layer plus one local-cosine layer per residual step, each
// coding what all previous layers failed to represent.
func Encode(img *image.Gray, opts Options) (*Stream, error) {
	opts.defaults()
	if opts.BaseStep <= 0 {
		return nil, fmt.Errorf("compress: base step %v must be positive", opts.BaseStep)
	}
	for _, s := range opts.ResidualSteps {
		if s <= 0 {
			return nil, fmt.Errorf("compress: residual step %v must be positive", s)
		}
	}
	st := &Stream{W: img.W, H: img.H, Levels: opts.Levels, Block: opts.Block}
	if err := st.checkGeometry(); err != nil {
		return nil, err
	}
	kind := CosineLayer
	if opts.Basis == PacketBasis {
		kind = PacketLayer
		if err := checkPacket(st.W, st.H, packetDepth); err != nil {
			return nil, err
		}
	}

	// The running reconstruction is folded together by the code Decode
	// runs, so each layer codes exactly what a decoder of the layers
	// before it is missing; the residual plane, free meanwhile, is lent to
	// it for a packet layer's coefficients.
	residual := make([]float64, len(img.Pix))
	d := &decoder{s: st, recon: make([]float64, len(img.Pix)), coef: residual}
	for li, step := range append([]float64{opts.BaseStep}, opts.ResidualSteps...) {
		for i, v := range img.Pix {
			residual[i] = v - d.recon[i]
		}
		l := Layer{Kind: kind, Step: step}
		var err error
		switch {
		case li == 0:
			l.Kind = WaveletLayer
			err = waveletForward2D(residual, st.W, st.H, st.Levels)
		case kind == PacketLayer:
			err = packetForward2D(residual, st.W, st.H, packetDepth)
		default:
			d.cosine().transform(residual, residual, false)
		}
		if err != nil {
			return nil, err
		}
		l.Data = entropyEncode(residual, step)
		st.Layers = append(st.Layers, l)
		if err := d.addLayer(li); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// decoder sums a stream's layers into recon, in the memory one Encode or
// Decode call works in: recon and a strip of cosine coefficients, or for
// packet layers, whose synthesis needs every coefficient, a plane of them.
type decoder struct {
	s     *Stream
	recon []float64 // the layers added so far; all zero before the first
	coef  []float64 // a packet layer's coefficients, made by the first one
	strip []float64 // Block rows of a cosine layer's coefficients
	dct   *blockDCT // made with strip by the first cosine layer
}

func (d *decoder) cosine() *blockDCT {
	if d.dct == nil {
		d.dct = newBlockDCT(d.s.W, d.s.H, d.s.Block)
		d.strip = make([]float64, d.s.W*min(d.s.Block, d.s.H))
	}
	return d.dct
}

// addLayer folds layer li into recon: the payload is entropy-decoded and
// dequantized straight into what is inverse-transformed — recon itself for
// the base layer, a strip of tiles at a time for a cosine layer.
func (d *decoder) addLayer(li int) error {
	s, l := d.s, d.s.Layers[li]
	rd := entropyReader{data: l.Data, step: l.Step, total: len(d.recon)}
	switch {
	case li == 0:
		if err := rd.all(d.recon); err != nil {
			return err
		}
		return waveletInverse2D(d.recon, s.W, s.H, s.Levels)
	case l.Kind == CosineLayer:
		dct := d.cosine()
		for y0 := 0; y0 < s.H; y0 += s.Block {
			bh := min(s.Block, s.H-y0)
			if err := rd.next(d.strip[:bh*s.W]); err != nil {
				return err
			}
			dct.band(d.recon[y0*s.W:], d.strip, bh, true)
		}
		return rd.finish()
	case l.Kind == PacketLayer:
		if d.coef == nil {
			d.coef = make([]float64, len(d.recon))
		}
		if err := rd.all(d.coef); err != nil {
			return err
		}
		if err := packetInverse2D(d.coef, s.W, s.H, packetDepth); err != nil {
			return err
		}
		for i, v := range d.coef {
			d.recon[i] += v
		}
		return nil
	}
	return fmt.Errorf("compress: layer %d has unexpected kind %d", li, l.Kind)
}

// Decode reconstructs the image using the first k layers (k=0 or
// k>len(layers) means all layers). Higher k → higher fidelity.
func (s *Stream) Decode(k int) (*image.Gray, error) {
	if k <= 0 || k > len(s.Layers) {
		k = len(s.Layers)
	}
	if k == 0 || s.Layers[0].Kind != WaveletLayer {
		return nil, fmt.Errorf("compress: stream lacks a wavelet base layer")
	}
	if err := s.checkGeometry(); err != nil {
		return nil, err
	}
	out, err := image.New(s.W, s.H)
	if err != nil {
		return nil, err
	}
	d := &decoder{s: s, recon: out.Pix}
	for li := 0; li < k; li++ {
		if err := d.addLayer(li); err != nil {
			return nil, err
		}
	}
	for i, v := range out.Pix {
		if v < 0 {
			out.Pix[i] = 0
		} else if v > 1 {
			out.Pix[i] = 1
		}
	}
	return out, nil
}

// LayerBytes returns the payload size of layer i.
func (s *Stream) LayerBytes(i int) int { return len(s.Layers[i].Data) }

// PrefixBytes returns the total payload of the first k layers — the
// transfer cost of showing the image at resolution level k.
func (s *Stream) PrefixBytes(k int) int {
	if k <= 0 || k > len(s.Layers) {
		k = len(s.Layers)
	}
	total := 0
	for i := 0; i < k; i++ {
		total += len(s.Layers[i].Data)
	}
	return total
}

// blockDCT is the blocked local-cosine transform of one plane geometry:
// a separable orthonormal DCT-II over block×block tiles, edge tiles at
// their actual smaller size. The cosines are evaluated once per plane, for
// the three tile sides there can be; a transform is two passes of
// multiply-adds against them, both running along rows so that every inner
// loop is contiguous.
type blockDCT struct {
	w, h, block        int
	full, edgeW, edgeH *dctBasis // sides block, w%block and h%block
	scratch            []float64 // one tile between the two passes
	live               []bool    // which scratch rows the first pass wrote
}

// dctBasis is the n×n orthonormal DCT-II matrix both ways round:
// vec[k*n+i] = at[i*n+k] = basis vector k at sample i.
type dctBasis struct{ vec, at []float64 }

func newBlockDCT(w, h, block int) *blockDCT {
	bw, bh := min(block, w), min(block, h)
	return &blockDCT{w: w, h: h, block: block,
		full: newDCTBasis(block), edgeW: newDCTBasis(w % block), edgeH: newDCTBasis(h % block),
		scratch: make([]float64, bw*bh), live: make([]bool, bh)}
}

// newDCTBasis borrows the cosines from dsp: basis vector k is the inverse
// transform of the k-th unit vector, which costs dsp.IDCT2 one row of
// them, n² for the matrix.
func newDCTBasis(n int) *dctBasis {
	b := &dctBasis{vec: make([]float64, n*n), at: make([]float64, n*n)}
	unit := make([]float64, n)
	for k := 0; k < n; k++ {
		unit[k] = 1
		copy(b.vec[k*n:], dsp.IDCT2(unit))
		unit[k] = 0
		for i := 0; i < n; i++ {
			b.at[i*n+k] = b.vec[k*n+i]
		}
	}
	return b
}

// bases returns the bases of the two sides of a bw×bh tile.
func (t *blockDCT) bases(bw, bh int) (bx, by *dctBasis) {
	bx, by = t.full, t.full
	if bw < t.block {
		bx = t.edgeW
	}
	if bh < t.block {
		by = t.edgeH
	}
	return bx, by
}

// transform runs the forward transform of every tile of src into dst
// (which may be src itself), or with inverse set adds the inverse
// transform of every tile of src onto dst. Terms with a zero factor are
// skipped — all of them in an all-zero tile, most of them in a quantized
// residual — which leaves every sum what it would have been.
func (t *blockDCT) transform(dst, src []float64, inverse bool) {
	for y0 := 0; y0 < t.h; y0 += t.block {
		t.band(dst[y0*t.w:], src[y0*t.w:], min(t.block, t.h-y0), inverse)
	}
}

// band is transform over one row of tiles, bh high: the w-wide rows of
// src and dst that hold it, starting at its first.
func (t *blockDCT) band(dst, src []float64, bh int, inverse bool) {
	for x0 := 0; x0 < t.w; x0 += t.block {
		bw := min(t.block, t.w-x0)
		// along maps a tile row to its transform by row-vector × matrix;
		// down holds the weights of the column pass.
		bx, by := t.bases(bw, bh)
		along, down := bx.at, by.vec
		if inverse {
			along, down = bx.vec, by.at
		}
		for y := 0; y < bh; y++ {
			out := t.scratch[y*bw : (y+1)*bw]
			t.live[y] = false
			for i, c := range src[y*t.w+x0:][:bw] {
				if c == 0 {
					continue
				}
				if !t.live[y] {
					t.live[y] = true
					clear(out)
				}
				axpy(out, c, along[i*bw:])
			}
		}
		for y := 0; y < bh; y++ {
			out := dst[y*t.w+x0:][:bw]
			if !inverse {
				clear(out)
			}
			for k, m := range down[y*bh:][:bh] {
				if !t.live[k] {
					continue
				}
				axpy(out, m, t.scratch[k*bw:])
			}
		}
	}
}

// axpy adds a·x[i] to every y[i]; x must be at least as long as y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// entropyEncode quantizes coefficients to integer multiples of step and
// codes them with zero-run/varint coding: runs of zeros become
// (0, runLength); non-zero values become zigzag(v)+1. All tokens are
// unsigned varints.
func entropyEncode(coeffs []float64, step float64) []byte {
	var buf []byte
	var run uint64
	flush := func() {
		if run > 0 {
			buf = binary.AppendUvarint(append(buf, 0), run)
			run = 0
		}
	}
	for _, c := range coeffs {
		q := int32(math.Round(c / step))
		if q == 0 {
			run++
			continue
		}
		flush()
		buf = binary.AppendUvarint(buf, zigzag(q)+1)
	}
	flush()
	return buf
}

// entropyReader reverses entropyEncode a stretch at a time: the total
// coefficients of one plane, read in order into whatever pieces the caller
// takes them in, each dequantized as it is read.
type entropyReader struct {
	data       []byte
	step       float64
	pos, total int // coefficients delivered so far, and in the plane
	run        int // zeros of the run being read that are still owed
}

// next fills dst with the next len(dst) coefficients. A zero run that
// reaches past dst carries over to the next call; one that reaches past
// the plane is corrupt wherever the pieces are cut.
func (r *entropyReader) next(dst []float64) error {
	data, i := r.data, min(r.run, len(dst))
	r.run -= i
	clear(dst[:i])
	for i < len(dst) {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("compress: truncated layer payload at %d/%d", r.pos+i, r.total)
		}
		data = data[n:]
		if u != 0 {
			dst[i] = float64(unzigzag(u-1)) * r.step
			i++
			continue
		}
		run, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("compress: truncated zero run at %d/%d", r.pos+i, r.total)
		}
		data = data[n:]
		if run == 0 || run > uint64(r.total-r.pos-i) {
			return fmt.Errorf("compress: corrupt zero run of %d at %d/%d", run, r.pos+i, r.total)
		}
		here := min(int(run), len(dst)-i)
		clear(dst[i : i+here])
		r.run, i = int(run)-here, i+here
	}
	r.data, r.pos = data, r.pos+len(dst)
	return nil
}

// finish reports whether the payload held exactly the plane: every
// coefficient delivered, no byte left over.
func (r *entropyReader) finish() error {
	if r.pos != r.total {
		return fmt.Errorf("compress: %d of %d coefficients read", r.pos, r.total)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("compress: %d trailing bytes in layer payload", len(r.data))
	}
	return nil
}

// all reads the whole plane in one piece.
func (r *entropyReader) all(dst []float64) error {
	if err := r.next(dst); err != nil {
		return err
	}
	return r.finish()
}

func zigzag(v int32) uint64 {
	return uint64(uint32((v << 1) ^ (v >> 31)))
}

func unzigzag(u uint64) int32 {
	return int32(uint32(u)>>1) ^ -int32(u&1)
}

// Marshal serializes the stream into a header (layer directory) and a
// body (concatenated layer payloads) — the FLD_HEADER / FLD_DATA split of
// CMP_OBJECTS_TABLE, which lets a server ship any prefix of the body.
func (s *Stream) Marshal() (header, body []byte, err error) {
	var hb bytes.Buffer
	w := func(v any) {
		if err == nil {
			err = binary.Write(&hb, binary.LittleEndian, v)
		}
	}
	w(uint32(headerMagic))
	w(uint32(s.W))
	w(uint32(s.H))
	w(uint32(s.Levels))
	w(uint32(s.Block))
	w(uint32(len(s.Layers)))
	var db bytes.Buffer
	for _, l := range s.Layers {
		w(uint8(l.Kind))
		w(l.Step)
		w(uint64(len(l.Data)))
		db.Write(l.Data)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("compress: marshal: %w", err)
	}
	return hb.Bytes(), db.Bytes(), nil
}

// MMLY header layout: six little-endian uint32s (magic, W, H, Levels,
// Block, layer count), then one directory entry per layer (kind uint8,
// step float64, size uint64).
const (
	headerMagic    = 0x4D4D4C59 // "MMLY"
	headerFixedLen = 6 * 4
	dirEntryLen    = 1 + 8 + 8
)

// parseHeader checks an MMLY header without touching the body and
// returns the stream geometry — checked: these bytes come off the network,
// and Decode sizes its planes and loops by them — plus the layer
// directory: one dirEntryLen-byte entry per layer, all present.
func parseHeader(header []byte) (*Stream, []byte, error) {
	le := binary.LittleEndian
	if len(header) < 4 || le.Uint32(header) != headerMagic {
		return nil, nil, fmt.Errorf("compress: not an MMLY header")
	}
	if len(header) < headerFixedLen {
		return nil, nil, fmt.Errorf("compress: truncated header")
	}
	s := &Stream{W: int(le.Uint32(header[4:])), H: int(le.Uint32(header[8:])),
		Levels: int(le.Uint32(header[12:])), Block: int(le.Uint32(header[16:]))}
	if err := s.checkGeometry(); err != nil {
		return nil, nil, err
	}
	count := le.Uint32(header[20:])
	if count == 0 || count > 64 {
		return nil, nil, fmt.Errorf("compress: implausible header (%d layers)", count)
	}
	dir := header[headerFixedLen:]
	if len(dir) < int(count)*dirEntryLen {
		return nil, nil, fmt.Errorf("compress: truncated layer directory")
	}
	return s, dir[:int(count)*dirEntryLen], nil
}

// Unmarshal reassembles a stream from its header and body. A truncated
// body is accepted as long as it covers whole layers — that is the
// partial-transfer path: a client that received only k layers decodes
// what it has. The stream aliases body: every Layer.Data is a slice of
// it, capped at its own end, and neither Unmarshal nor Decode writes there.
func Unmarshal(header, body []byte) (*Stream, error) {
	s, dir, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	for ; len(dir) > 0; dir = dir[dirEntryLen:] {
		size := binary.LittleEndian.Uint64(dir[9:])
		if size > uint64(len(body)) {
			break // partial transfer: stop at the last complete layer
		}
		s.Layers = append(s.Layers, Layer{
			Kind: LayerKind(dir[0]),
			Step: math.Float64frombits(binary.LittleEndian.Uint64(dir[1:])),
			Data: body[:size:size],
		})
		body = body[size:]
	}
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("compress: body contains no complete layer")
	}
	return s, nil
}

// PrefixLen returns how many body bytes the first k layers occupy,
// reading only the layer directory: what a server needs to slice a stored
// stream for a k-layer transfer. It equals
// Unmarshal(header, body).PrefixBytes(k) for a complete body, k ≤ 0 and k
// beyond the directory meaning every layer there as well.
func PrefixLen(header []byte, k int) (int, error) {
	_, dir, err := parseHeader(header)
	if err != nil {
		return 0, err
	}
	if layers := len(dir) / dirEntryLen; k <= 0 || k > layers {
		k = layers
	}
	var n uint64
	for i := 0; i < k; i++ {
		size := binary.LittleEndian.Uint64(dir[i*dirEntryLen+9:])
		if size > math.MaxUint32 { // no blob is that long; keeps n from wrapping
			return 0, fmt.Errorf("compress: implausible layer size %d", size)
		}
		n += size
	}
	return int(n), nil
}
