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

// Encode compresses img into a multi-layer stream: one coarsely quantized
// wavelet base layer plus one local-cosine layer per residual step, each
// coding what all previous layers failed to represent.
func Encode(img *image.Gray, opts Options) (*Stream, error) {
	opts.defaults()
	if opts.Levels < 1 || opts.BaseStep <= 0 || opts.Block < 2 {
		return nil, fmt.Errorf("compress: invalid options %+v", opts)
	}
	for _, s := range opts.ResidualSteps {
		if s <= 0 {
			return nil, fmt.Errorf("compress: residual step %v must be positive", s)
		}
	}
	st := &Stream{W: img.W, H: img.H, Levels: opts.Levels, Block: opts.Block}

	// Base layer: wavelet transform, quantize, code.
	coeffs := append([]float64(nil), img.Pix...)
	if err := waveletForward2D(coeffs, img.W, img.H, opts.Levels); err != nil {
		return nil, err
	}
	q := quantize(coeffs, opts.BaseStep)
	st.Layers = append(st.Layers, Layer{Kind: WaveletLayer, Step: opts.BaseStep, Data: entropyEncode(q)})

	// Track the running reconstruction to derive residuals.
	recon, err := st.decodeBase()
	if err != nil {
		return nil, err
	}
	kind := CosineLayer
	if opts.Basis == PacketBasis {
		kind = PacketLayer
		if img.W%(1<<packetDepth) != 0 || img.H%(1<<packetDepth) != 0 {
			return nil, fmt.Errorf("compress: %dx%d not divisible by %d for the packet basis",
				img.W, img.H, 1<<packetDepth)
		}
	}
	for _, step := range opts.ResidualSteps {
		residual := make([]float64, len(img.Pix))
		for i := range residual {
			residual[i] = img.Pix[i] - recon[i]
		}
		if kind == PacketLayer {
			if err := packetForward2D(residual, img.W, img.H, packetDepth); err != nil {
				return nil, err
			}
		} else {
			cosineForward(residual, img.W, img.H, opts.Block)
		}
		qr := quantize(residual, step)
		st.Layers = append(st.Layers, Layer{Kind: kind, Step: step, Data: entropyEncode(qr)})
		// Fold the coded residual into the running reconstruction.
		deq := dequantize(qr, step)
		if kind == PacketLayer {
			if err := packetInverse2D(deq, img.W, img.H, packetDepth); err != nil {
				return nil, err
			}
		} else {
			cosineInverse(deq, img.W, img.H, opts.Block)
		}
		for i := range recon {
			recon[i] += deq[i]
		}
	}
	return st, nil
}

// decodeBase reconstructs the wavelet base layer only.
func (s *Stream) decodeBase() ([]float64, error) {
	if len(s.Layers) == 0 || s.Layers[0].Kind != WaveletLayer {
		return nil, fmt.Errorf("compress: stream lacks a wavelet base layer")
	}
	q, err := entropyDecode(s.Layers[0].Data, s.W*s.H)
	if err != nil {
		return nil, err
	}
	coeffs := dequantize(q, s.Layers[0].Step)
	if err := waveletInverse2D(coeffs, s.W, s.H, s.Levels); err != nil {
		return nil, err
	}
	return coeffs, nil
}

// Decode reconstructs the image using the first k layers (k=0 or
// k>len(layers) means all layers). Higher k → higher fidelity.
func (s *Stream) Decode(k int) (*image.Gray, error) {
	if k <= 0 || k > len(s.Layers) {
		k = len(s.Layers)
	}
	recon, err := s.decodeBase()
	if err != nil {
		return nil, err
	}
	for li := 1; li < k; li++ {
		l := s.Layers[li]
		q, err := entropyDecode(l.Data, s.W*s.H)
		if err != nil {
			return nil, err
		}
		deq := dequantize(q, l.Step)
		switch l.Kind {
		case CosineLayer:
			cosineInverse(deq, s.W, s.H, s.Block)
		case PacketLayer:
			if err := packetInverse2D(deq, s.W, s.H, packetDepth); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("compress: layer %d has unexpected kind %d", li, l.Kind)
		}
		for i := range recon {
			recon[i] += deq[i]
		}
	}
	out, err := image.New(s.W, s.H)
	if err != nil {
		return nil, err
	}
	for i, v := range recon {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out.Pix[i] = v
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

// quantize rounds coefficients to integer multiples of step.
func quantize(coeffs []float64, step float64) []int32 {
	q := make([]int32, len(coeffs))
	for i, c := range coeffs {
		q[i] = int32(math.Round(c / step))
	}
	return q
}

// dequantize reverses quantize.
func dequantize(q []int32, step float64) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		out[i] = float64(v) * step
	}
	return out
}

// cosineForward applies a blocked separable DCT-II in place over the
// plane, block by block (edge blocks use their actual smaller size).
func cosineForward(pix []float64, w, h, block int) []float64 {
	forEachBlock(w, h, block, func(x0, y0, bw, bh int) {
		applyBlock(pix, w, x0, y0, bw, bh, dsp.DCT2)
	})
	return pix
}

// cosineInverse inverts cosineForward.
func cosineInverse(pix []float64, w, h, block int) {
	forEachBlock(w, h, block, func(x0, y0, bw, bh int) {
		applyBlock(pix, w, x0, y0, bw, bh, dsp.IDCT2)
	})
}

func forEachBlock(w, h, block int, fn func(x0, y0, bw, bh int)) {
	for y0 := 0; y0 < h; y0 += block {
		bh := block
		if y0+bh > h {
			bh = h - y0
		}
		for x0 := 0; x0 < w; x0 += block {
			bw := block
			if x0+bw > w {
				bw = w - x0
			}
			fn(x0, y0, bw, bh)
		}
	}
}

// applyBlock runs a 1-D transform over the rows then columns of a block.
func applyBlock(pix []float64, stride, x0, y0, bw, bh int, transform func([]float64) []float64) {
	row := make([]float64, bw)
	for y := y0; y < y0+bh; y++ {
		copy(row, pix[y*stride+x0:y*stride+x0+bw])
		out := transform(row)
		copy(pix[y*stride+x0:y*stride+x0+bw], out)
	}
	col := make([]float64, bh)
	for x := x0; x < x0+bw; x++ {
		for y := 0; y < bh; y++ {
			col[y] = pix[(y0+y)*stride+x]
		}
		out := transform(col)
		for y := 0; y < bh; y++ {
			pix[(y0+y)*stride+x] = out[y]
		}
	}
}

// entropyEncode codes quantized coefficients with zero-run/varint coding:
// runs of zeros become (0, runLength); non-zero values become
// zigzag(v)+1. All tokens are unsigned varints.
func entropyEncode(q []int32) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(u uint64) {
		n := binary.PutUvarint(tmp[:], u)
		buf.Write(tmp[:n])
	}
	i := 0
	for i < len(q) {
		if q[i] == 0 {
			run := 0
			for i < len(q) && q[i] == 0 {
				run++
				i++
			}
			put(0)
			put(uint64(run))
			continue
		}
		put(zigzag(q[i]) + 1)
		i++
	}
	return buf.Bytes()
}

// entropyDecode reverses entropyEncode, producing exactly n coefficients.
func entropyDecode(data []byte, n int) ([]int32, error) {
	out := make([]int32, 0, n)
	r := bytes.NewReader(data)
	for len(out) < n {
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("compress: truncated layer payload: %w", err)
		}
		if u == 0 {
			run, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("compress: truncated zero run: %w", err)
			}
			if run == 0 || uint64(len(out))+run > uint64(n) {
				return nil, fmt.Errorf("compress: corrupt zero run of %d at %d/%d", run, len(out), n)
			}
			for j := uint64(0); j < run; j++ {
				out = append(out, 0)
			}
			continue
		}
		out = append(out, unzigzag(u-1))
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes in layer payload", r.Len())
	}
	return out, nil
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
// returns the stream geometry plus the layer directory: one
// dirEntryLen-byte entry per layer, all present.
func parseHeader(header []byte) (*Stream, []byte, error) {
	le := binary.LittleEndian
	if len(header) < 4 || le.Uint32(header) != headerMagic {
		return nil, nil, fmt.Errorf("compress: not an MMLY header")
	}
	if len(header) < headerFixedLen {
		return nil, nil, fmt.Errorf("compress: truncated header")
	}
	w32, h32, count := le.Uint32(header[4:]), le.Uint32(header[8:]), le.Uint32(header[20:])
	if w32 == 0 || h32 == 0 || count == 0 || count > 64 {
		return nil, nil, fmt.Errorf("compress: implausible header (%dx%d, %d layers)", w32, h32, count)
	}
	dir := header[headerFixedLen:]
	if len(dir) < int(count)*dirEntryLen {
		return nil, nil, fmt.Errorf("compress: truncated layer directory")
	}
	s := &Stream{W: int(w32), H: int(h32), Levels: int(le.Uint32(header[12:])), Block: int(le.Uint32(header[16:]))}
	return s, dir[:int(count)*dirEntryLen], nil
}

// Unmarshal reassembles a stream from its header and body. A truncated
// body is accepted as long as it covers whole layers — that is the
// partial-transfer path: a client that received only k layers decodes
// what it has.
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
			Data: append([]byte(nil), body[:size]...),
		})
		body = body[size:]
	}
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("compress: body contains no complete layer")
	}
	return s, nil
}

// PrefixLen returns how many body bytes the first k layers (k ≥ 1)
// occupy, reading only the layer directory: what a server needs to
// slice a stored stream for a k-layer transfer, without Unmarshal's
// copy of every layer. It equals Unmarshal(header, body).PrefixBytes(k)
// for a complete body; k beyond the directory is an error.
func PrefixLen(header []byte, k int) (int, error) {
	_, dir, err := parseHeader(header)
	if err != nil {
		return 0, err
	}
	if layers := len(dir) / dirEntryLen; k > layers {
		return 0, fmt.Errorf("compress: stream has %d layers, not %d", layers, k)
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
