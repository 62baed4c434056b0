package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

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
// a tile transform holds two block×block cosine tables and a third of one
// more (1.2 MiB at the bound) and costs at most block multiply-adds per
// pixel.
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

	// Each layer codes what a decoder of the layers before it is missing:
	// the image less what reconstruct, the code Decode runs, makes of them
	// before it clamps. The residual plane, free meanwhile, is lent to it
	// for packet coefficients; nothing reconstructs after the last layer.
	residual := make([]float64, len(img.Pix))
	d := &decoder{s: st, recon: make([]float64, len(img.Pix)), coef: residual}
	for li, step := range append([]float64{opts.BaseStep}, opts.ResidualSteps...) {
		if li > 0 {
			clear(d.recon)
			if err := d.reconstruct(li, false); err != nil {
				return nil, err
			}
		}
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
	}
	return st, nil
}

// decoder is the memory one Encode or Decode call reconstructs in: recon,
// a band of cosine coefficients, and for packet layers, whose synthesis
// needs every coefficient, a plane of them; beside them the scratch the
// transforms work in, each part fitted to the stream when it is used.
// Decode takes its decoder from decoders, so the scratch outlives it.
type decoder struct {
	s     *Stream
	recon []float64 // the reconstruction; all zero before each
	coef  []float64 // packet coefficients, made by the first reconstruction with any
	strip strip     // a band of the cosine layers' coefficients
	dct   blockDCT
	lift  liftScratch
}

// decoders recycles Decode's decoders without their planes and stream:
// what one keeps is scratch a reconstruction overwrites before it reads,
// and a strip whose sums a reconstruction that succeeded has left zero.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

func (d *decoder) cosine() *blockDCT { return d.dct.fit(d.s.W, d.s.H, d.s.Block) }

// reconstruct writes into recon the superposition of the first k layers
// (§3.3): the base layer, entropy-decoded and inverse-lifted, plus one
// synthesis of the sum of the cosine layers' coefficients and one of the
// packet layers'. Each transform is linear, so the sum synthesizes to what
// the layers would one by one, and a layer costs only its coefficients.
// With clamp set, the pass that writes the pixels last clamps them to
// [0, 1]. A fault reported is the first one a decoder taking the layers
// one at a time would meet.
func (d *decoder) reconstruct(k int, clamp bool) error {
	s, n := d.s, len(d.recon)
	rd := entropyReader{data: s.Layers[0].Data, step: s.Layers[0].Step, total: n}
	if err := rd.all(d.recon); err != nil {
		return err
	}
	cos, packets := d.strip.rd[:0], false
	if cap(cos) < k-1 {
		cos = make([]entropyReader, 0, k-1)
	}
	for li, l := range s.Layers[1:k] {
		switch l.Kind {
		case CosineLayer:
			cos = append(cos, entropyReader{data: l.Data, step: l.Step, total: n})
		case PacketLayer:
			packets = true
		default:
			return s.fault(k, fmt.Errorf("compress: layer %d has unexpected kind %d", li+1, l.Kind))
		}
	}
	d.strip.rd = cos
	if packets {
		if err := checkPacket(s.W, s.H, packetDepth); err != nil {
			return s.fault(k, err)
		}
	}
	if err := waveletInverse2D(d.recon, s.W, s.H, s.Levels, clamp && !packets && len(cos) == 0, &d.lift); err != nil {
		return err
	}
	if len(cos) > 0 {
		dct := d.cosine()
		dct.clamp = clamp && !packets
		d.strip.fit(s.W * min(s.Block, s.H))
		for y0 := 0; y0 < s.H; y0 += s.Block {
			bh := min(s.Block, s.H-y0)
			if err := d.strip.read(s.W, bh); err != nil {
				return s.fault(k, err)
			}
			dct.band(d.recon[y0*s.W:], &d.strip, bh)
		}
		for i := range cos {
			if err := cos[i].finish(); err != nil {
				return s.fault(k, err)
			}
		}
	}
	if !packets {
		return nil
	}
	if d.coef == nil {
		d.coef = make([]float64, n)
	} else {
		clear(d.coef)
	}
	for _, l := range s.Layers[1:k] {
		if l.Kind != PacketLayer {
			continue
		}
		rd := entropyReader{data: l.Data, step: l.Step, total: n}
		if err := rd.all(d.coef); err != nil {
			return s.fault(k, err)
		}
	}
	if err := packetInverse2D(d.coef, s.W, s.H, packetDepth, &d.lift); err != nil {
		return err
	}
	if !clamp {
		axpy(d.recon, 1, d.coef)
		return nil
	}
	for i, v := range d.coef {
		d.recon[i] = clamp01(d.recon[i] + v)
	}
	return nil
}

// fault is the first fault among the first k layers of a stream whose base
// layer is sound, in layer order, or met if there is none: reconstruct
// reads its cosine layers side by side and its packet layers after them,
// so the fault it met can lie in a later layer than another's.
func (s *Stream) fault(k int, met error) error {
	var buf [256]nonzero
	for li := 1; li < k; li++ {
		l := s.Layers[li]
		if l.Kind != CosineLayer && l.Kind != PacketLayer {
			return fmt.Errorf("compress: layer %d has unexpected kind %d", li, l.Kind)
		}
		rd := entropyReader{data: l.Data, step: l.Step, total: s.W * s.H}
		for rd.pos < rd.total {
			if _, err := rd.nonzeros(buf[:0], min(len(buf), rd.total-rd.pos)); err != nil {
				return err
			}
		}
		if err := rd.finish(); err != nil {
			return err
		}
		if l.Kind == PacketLayer {
			if err := checkPacket(s.W, s.H, packetDepth); err != nil {
				return err
			}
		}
	}
	return met
}

// clamp01 is min(max(v, 0), 1) by the bit pattern: a float64 with its
// sign bit clear orders as its bits do as an integer, and every one with
// it set, -0 among them, clamps to 0. A NaN comes out as math.NaN(), as
// from math.Min(math.Max(v, 0), 1).
func clamp01(v float64) float64 {
	if v != v {
		return math.NaN()
	}
	const one = 0x3FF0000000000000 // the bits of 1.0
	return math.Float64frombits(uint64(min(max(int64(math.Float64bits(v)), 0), one)))
}

func clampAll(p []float64) {
	for i, v := range p {
		p[i] = clamp01(v)
	}
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
	d := decoders.Get().(*decoder)
	d.s, d.recon = s, out.Pix
	err = d.reconstruct(k, true)
	// What goes back holds nothing of this call: no plane, and no
	// reader of the stream's payload.
	d.s, d.recon, d.coef = nil, nil, nil
	clear(d.strip.rd[:cap(d.strip.rd)])
	if err != nil {
		// A reconstruction that failed may have left sums in the strip.
		return nil, err
	}
	decoders.Put(d)
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

// entropyEncode quantizes coefficients to integer multiples of step and
// codes them with zero-run/varint coding: runs of zeros become
// (0, runLength); non-zero values become zigzag(v)+1. All tokens are
// unsigned varints.
func entropyEncode(coeffs []float64, step float64) []byte {
	var buf []byte
	var run uint64
	for _, c := range coeffs {
		q := int32(math.Round(c / step))
		if q == 0 {
			run++
			continue
		}
		if run > 0 {
			buf, run = binary.AppendUvarint(append(buf, 0), run), 0
		}
		buf = binary.AppendUvarint(buf, zigzag(q)+1)
	}
	if run > 0 {
		buf = binary.AppendUvarint(append(buf, 0), run)
	}
	return buf
}

// entropyReader reverses entropyEncode a stretch at a time: the total
// coefficients of one plane, read in order in whatever pieces the caller
// takes them, each piece either as its nonzero coefficients or dequantized
// into a dense slice.
type entropyReader struct {
	data       []byte
	step       float64
	pos, total int // coefficients delivered so far, and in the plane
	run        int // zeros of the run being read that are still owed
}

// nonzero is a coefficient that is not zero: its position in the piece it
// was read in and its quantized value, which dequantizes to q·step.
type nonzero struct{ col, q int32 }

// nonzeros appends to nz the nonzero coefficients among the next n. A
// zero run that reaches past them carries over to the next call; one that
// reaches past the plane is corrupt wherever the pieces are cut. Every
// read of the plane is this loop.
func (r *entropyReader) nonzeros(nz []nonzero, n int) ([]nonzero, error) {
	data, i := r.data, min(r.run, n)
	r.run -= i
	for i < n {
		u, k := uint64(0), 1 // most tokens are one byte: read those inline
		if len(data) > 0 && data[0] < 0x80 {
			u = uint64(data[0])
		} else if u, k = binary.Uvarint(data); k <= 0 {
			return nz, fmt.Errorf("compress: truncated layer payload at %d/%d", r.pos+i, r.total)
		}
		data = data[k:]
		if u != 0 {
			if u != 1 { // 1 is a zero the encoder would have run: skipped here too
				nz = append(nz, nonzero{int32(i), unzigzag(u - 1)})
			}
			i++
			continue
		}
		run, k := uint64(0), 1
		if len(data) > 0 && data[0] < 0x80 {
			run = uint64(data[0])
		} else if run, k = binary.Uvarint(data); k <= 0 {
			return nz, fmt.Errorf("compress: truncated zero run at %d/%d", r.pos+i, r.total)
		}
		data = data[k:]
		if run == 0 || run > uint64(r.total-r.pos-i) {
			return nz, fmt.Errorf("compress: corrupt zero run of %d at %d/%d", run, r.pos+i, r.total)
		}
		here := min(int(run), n-i)
		r.run, i = int(run)-here, i+here
	}
	r.data, r.pos = data, r.pos+n
	return nz, nil
}

// add adds the next len(dst) coefficients, dequantized, onto dst: the
// nonzero read a piece at a time, scattered. The product is rounded before
// the sum, as in a plane of the coefficients added onto dst.
func (r *entropyReader) add(dst []float64) error {
	var buf [256]nonzero
	for len(dst) > 0 {
		n := min(len(dst), len(buf))
		nz, err := r.nonzeros(buf[:0], n)
		if err != nil {
			return err
		}
		for _, c := range nz {
			dst[c.col] += float64(float64(c.q) * r.step)
		}
		dst = dst[n:]
	}
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

// all adds the whole plane onto dst.
func (r *entropyReader) all(dst []float64) error {
	if err := r.add(dst); err != nil {
		return err
	}
	return r.finish()
}

// strip is one band of the cosine layers summed in a reconstruction, bh
// rows of w coefficients, as their entropy readers deliver it: in acc the
// layers' coefficients summed position by position in layer order, and in
// mask a bit for every position some layer has one at. fold takes the
// sums off and leaves acc zero. A band is a float64 and a bit per
// coefficient, whatever the layer count.
type strip struct {
	rd   []entropyReader // one per layer, in layer order
	acc  []float64
	mask []uint64
}

// fit makes the strip a band of n coefficients, growing it only when it
// is short: a band a reconstruction has folded is all zero.
func (s *strip) fit(n int) {
	if cap(s.acc) < n {
		s.acc, s.mask = make([]float64, n), make([]uint64, (n+63)/64)
	}
	s.acc, s.mask = s.acc[:n], s.mask[:(n+63)/64]
}

// read takes the next bh rows, w coefficients each, off every reader.
func (s *strip) read(w, bh int) error {
	var buf [256]nonzero
	n := w * bh
	clear(s.mask)
	for l := range s.rd {
		r := &s.rd[l]
		for at := 0; at < n; at += len(buf) {
			nz, err := r.nonzeros(buf[:0], min(len(buf), n-at))
			if err != nil {
				return err
			}
			for _, c := range nz {
				i := at + int(c.col)
				s.acc[i] += float64(float64(c.q) * r.step)
				s.mask[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return nil
}

// fold runs the row pass of the tile row whose first coefficient is acc[at]
// into row: a term for every position of it mask marks, in column order,
// which it sets back to zero. It reports whether mask marks any.
func (s *strip) fold(row []float64, bx *dctBasis, at int) bool {
	end, live := at+len(row), false
	for c := at; c < end; c = c&^63 + 64 {
		m := s.mask[c>>6] >> (c & 63)
		if end-c < 64 {
			m &= 1<<(end-c) - 1
		}
		live = live || m != 0
		for ; m != 0; m &= m - 1 {
			i := c + bits.TrailingZeros64(m)
			bx.term(row, i-at, s.acc[i])
			s.acc[i] = 0
		}
	}
	return live
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
