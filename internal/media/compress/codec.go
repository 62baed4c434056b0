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
	strip strip     // Block rows of a cosine layer's nonzero coefficients
	dct   *blockDCT // made with strip by the first cosine layer
}

func (d *decoder) cosine() *blockDCT {
	if d.dct == nil {
		bh := min(d.s.Block, d.s.H)
		d.dct = newBlockDCT(d.s.W, d.s.H, d.s.Block)
		d.strip = strip{nz: make([]nonzero, 0, d.s.W*bh), from: make([]int, bh), to: make([]int, bh)}
	}
	return d.dct
}

// addLayer folds layer li into recon: the payload is entropy-decoded and
// dequantized straight into what is inverse-transformed — recon itself for
// the base layer, a strip of tiles at a time for a cosine layer, whose
// transform reads only the coefficients that are not zero.
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
			if err := d.strip.read(&rd, s.W, bh); err != nil {
				return err
			}
			dct.band(d.recon[y0*s.W:], &d.strip, bh)
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
		out.Pix[i] = min(max(v, 0), 1) // no branch: a black background sits on 0
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
// their actual smaller size. The cosines are tabulated once per plane, for
// the three tile sides there can be. A tile is transformed in two passes
// that both run along rows, so that every inner loop is contiguous: a row
// pass of multiply-adds against the basis, then a column pass that moves
// whole rows through the even/odd butterfly of dctBasis.
type blockDCT struct {
	w, h, block        int
	full, edgeW, edgeH dctBasis  // sides block, w%block and h%block
	rows, sums         []float64 // one tile after the row pass, and out of the inverse column pass
	live               []bool    // which rows of rows hold a nonzero term
}

func newBlockDCT(w, h, block int) *blockDCT {
	bw, bh := min(block, w), min(block, h)
	work := make([]float64, 2*bw*bh)
	return &blockDCT{w: w, h: h, block: block,
		full: newDCTBasis(block), edgeW: newDCTBasis(w % block), edgeH: newDCTBasis(h % block),
		rows: work[:bw*bh], sums: work[bw*bh:], live: make([]bool, bh)}
}

// bases returns the bases of the two sides of a bw×bh tile.
func (t *blockDCT) bases(bw, bh int) (bx, by *dctBasis) {
	bx, by = &t.full, &t.full
	if bw < t.block {
		bx = &t.edgeW
	}
	if bh < t.block {
		by = &t.edgeH
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
		bh := min(t.block, t.h-y0)
		for x0 := 0; x0 < t.w; x0 += t.block {
			bw := min(t.block, t.w-x0)
			bx, by := t.bases(bw, bh)
			for y := 0; y < bh; y++ {
				row := t.rows[y*bw:][:bw]
				clear(row)
				t.live[y] = false
				for i, c := range src[(y0+y)*t.w+x0:][:bw] {
					switch {
					case c == 0:
						continue
					case inverse:
						bx.term(row, i, c)
					default:
						axpy(row, c, bx.at[i*bw:])
					}
					t.live[y] = true
				}
			}
			if inverse {
				t.addColumns(dst[y0*t.w+x0:], bx, by, bw, bh)
			} else {
				by.analyze(dst[y0*t.w+x0:], t.w, t.rows, t.live, bw, 0, by.cols)
			}
		}
	}
}

// band adds the inverse transform of one strip of coefficients, bh rows
// high, onto the w-wide rows of dst that hold it, starting at its first.
// A tile's row pass takes its rows' nonzero coefficients off the strip in
// the order the reader listed them, so it makes the multiply-adds
// transform makes of the same coefficients laid out in a plane.
func (t *blockDCT) band(dst []float64, s *strip, bh int) {
	for x0 := 0; x0 < t.w; x0 += t.block {
		bw := min(t.block, t.w-x0)
		bx, by := t.bases(bw, bh)
		for y := 0; y < bh; y++ {
			row := t.rows[y*bw:][:bw]
			clear(row)
			k, to := s.from[y], s.to[y]
			for ; k < to && int(s.nz[k].col) < x0+bw; k++ {
				bx.term(row, int(s.nz[k].col)-x0, float64(s.nz[k].q)*s.step)
			}
			t.live[y] = k > s.from[y]
			s.from[y] = k
		}
		t.addColumns(dst[x0:], bx, by, bw, bh)
	}
}

// addColumns runs the inverse column pass over the row pass's tile and
// adds the result onto the bh rows of dst, bw wide, that hold the tile,
// doing on the way the butterfly the row pass left undone.
func (t *blockDCT) addColumns(dst []float64, bx, by *dctBasis, bw, bh int) {
	if !by.synth(t.sums, t.rows, t.live, bw, 0, by.cols) {
		return
	}
	for y := 0; y < bh; y++ {
		out, sum := dst[y*t.w:][:bw], t.sums[y*bw:][:bw]
		if bx.half == 0 {
			axpy(out, 1, sum)
			continue
		}
		for x := 0; x < bx.half; x++ {
			e, o := sum[x], sum[bw-1-x]
			out[x] += e - o
			out[bw-1-x] += e + o
		}
	}
}

// dctBasis is the n×n orthonormal DCT-II matrix of one tile side, laid out
// for the passes of a tile: vec[k*n+i] = at[i*n+k] = b_k(i), basis vector
// k at sample i.
//
// The inverse passes are built on the symmetry b_k(n−1−y) = (−1)^k·b_k(y):
// at y and n−1−y the terms of even k sum to the same E_y, those of odd k
// to O_y and −O_y. So for an even n the odd terms are needed at half the
// samples only, and the even terms are themselves a transform of half the
// length over every other k.
//
// The row pass splits once (term): a term of even k adds into the first
// half of the row only, making E_y there, one of odd k into the second
// half only, making −O_y at n−1−y; the add onto the plane combines the
// two. For an odd n, half is 0 and a term adds into the whole row.
//
// The column passes split while the length stays even: level l handles
// every 2^l-th k over r = n>>l samples. cols holds, level after level,
// each level's (r/2)² odd terms b_{2^l(2i+1)}(y) (y, i < r/2, y-major),
// then at the first odd r the r² terms b_{2^l·j}(y) that level multiplies
// out directly: all n² of them for an odd side. The forward column pass
// runs the same split transposed; the forward row pass is a plain product
// against at.
type dctBasis struct {
	n, half       int // half is n/2 for an even n, else 0
	vec, at, cols []float64
}

// newDCTBasis tabulates dsp's cosines for a tile side of n.
func newDCTBasis(n int) dctBasis {
	if n == 0 {
		return dctBasis{}
	}
	b := dctBasis{n: n, vec: dsp.DCTBasis(n), at: make([]float64, n*n)}
	if n%2 == 0 {
		b.half = n / 2
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			b.at[i*n+k] = b.vec[k*n+i]
		}
	}
	size, r := 0, n
	for ; r%2 == 0; r /= 2 {
		size += r / 2 * (r / 2)
	}
	b.cols = make([]float64, 0, size+r*r)
	m := 1
	for r = n; r%2 == 0; r, m = r/2, 2*m {
		for y := 0; y < r/2; y++ {
			for i := 0; i < r/2; i++ {
				b.cols = append(b.cols, b.vec[m*(2*i+1)*n+y])
			}
		}
	}
	for y := 0; y < r; y++ {
		for j := 0; j < r; j++ {
			b.cols = append(b.cols, b.vec[m*j*n+y])
		}
	}
	return b
}

// term adds c times basis vector k into row as the inverse row pass lays
// it out: over the half of the row that k's parity makes, or all of it.
func (b *dctBasis) term(row []float64, k int, c float64) {
	off := k & 1 * b.half
	axpy(row[off:][:b.n-b.half], c, b.vec[k*b.n+off:])
}

// synth is level l of the inverse column pass: into the first r = n>>l
// rows of out it writes T_y = Σ_j b_{m·j}(y)·in_{m·j} (m = 2^l), the
// inverse transform of every m-th row of in; tab is cols from level l on.
// Rows are w wide in both. Rows of in that are not live are zero and are
// skipped; when all that it would read are, synth leaves out alone and
// reports false.
func (b *dctBasis) synth(out, in []float64, live []bool, w, l int, tab []float64) bool {
	m, r := 1<<l, b.n>>l
	if r%2 == 1 {
		if !anyLive(live, 0, m, r) {
			return false
		}
		for y := 0; y < r; y++ {
			o := out[y*w:][:w]
			clear(o)
			mulAdd(o, in, live, 0, m, tab[y*r:], 1, r)
		}
		return true
	}
	// The even terms E_y land in rows y < h, the odd ones O_y in row
	// r−1−y, so that the butterfly turns each pair of rows in place into
	// T_y = E_y + O_y and T_{r−1−y} = E_y − O_y.
	h := r / 2
	even, odd := b.synth(out, in, live, w, l+1, tab[h*h:]), anyLive(live, m, 2*m, h)
	if !even && !odd {
		return false
	}
	if !even {
		clear(out[:h*w])
	}
	for y := 0; y < h; y++ {
		o := out[(r-1-y)*w:][:w]
		clear(o)
		if odd {
			mulAdd(o, in, live, m, 2*m, tab[y*h:], 1, h)
		}
	}
	for y := 0; y < h; y++ {
		butterfly(out[y*w:][:w], out[(r-1-y)*w:])
	}
	return true
}

// analyze is synth transposed, level l of the forward column pass: it
// writes X_{m·j} = Σ_y b_{m·j}(y)·a_y into row m·j of out (rows stride
// apart) for j < r, the forward transform of the first r rows of a, w
// wide. The butterfly goes first here, turning a_y and a_{r−1−y} into
// their sum, which the even terms take, and their difference, which the
// odd ones take; it overwrites a and live.
func (b *dctBasis) analyze(out []float64, stride int, a []float64, live []bool, w, l int, tab []float64) {
	m, r := 1<<l, b.n>>l
	if r%2 == 1 {
		for j := 0; j < r; j++ {
			o := out[j*m*stride:][:w]
			clear(o)
			mulAdd(o, a, live, 0, 1, tab[j:], r, r)
		}
		return
	}
	h := r / 2
	for y := 0; y < h; y++ {
		if live[y] || live[r-1-y] {
			butterfly(a[y*w:][:w], a[(r-1-y)*w:])
			live[y], live[r-1-y] = true, true
		}
	}
	b.analyze(out, stride, a, live, w, l+1, tab[h*h:])
	for i := 0; i < h; i++ {
		o := out[(2*i+1)*m*stride:][:w]
		clear(o)
		mulAdd(o, a, live, r-1, -1, tab[i:], h, h)
	}
}

// mulAdd is the product both column passes are made of: it adds
// Σ_{i<n} c[i·cs]·in_{first+i·step} to o, rows of in as wide as o, four
// terms at a time. A four whose rows are all dead is skipped, as is a dead
// row of the few left over: a dead row is zero, so skipping it adds what
// adding it would.
func mulAdd(o, in []float64, live []bool, first, step int, c []float64, cs, n int) {
	w, i := len(o), 0
	for ; i+4 <= n; i += 4 {
		r := first + i*step
		if live[r] || live[r+step] || live[r+2*step] || live[r+3*step] {
			axpy4(o, c[i*cs], c[(i+1)*cs], c[(i+2)*cs], c[(i+3)*cs],
				in[r*w:], in[(r+step)*w:], in[(r+2*step)*w:], in[(r+3*step)*w:])
		}
	}
	for ; i < n; i++ {
		if r := first + i*step; live[r] {
			axpy(o, c[i*cs], in[r*w:])
		}
	}
}

// axpy4 adds a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i] to every y[i]: four
// axpys in one pass over y.
func axpy4(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// anyLive reports whether any of the n rows first, first+step, … is live.
func anyLive(live []bool, first, step, n int) bool {
	for i := 0; i < n; i++ {
		if live[first+i*step] {
			return true
		}
	}
	return false
}

// axpy adds a·x[i] to every y[i]; x must be at least as long as y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// butterfly replaces every x[i], y[i] by x[i]+y[i], x[i]−y[i]; y must be
// at least as long as x.
func butterfly(x, y []float64) {
	y = y[:len(x)]
	for i, u := range x {
		x[i], y[i] = u+y[i], u-y[i]
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

// next fills dst with the next len(dst) coefficients, dequantized: the
// nonzero read a piece at a time, scattered over zeros.
func (r *entropyReader) next(dst []float64) error {
	var buf [256]nonzero
	for len(dst) > 0 {
		n := min(len(dst), len(buf))
		nz, err := r.nonzeros(buf[:0], n)
		if err != nil {
			return err
		}
		clear(dst[:n])
		for _, c := range nz {
			dst[c.col] = float64(c.q) * r.step
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

// all reads the whole plane in one piece.
func (r *entropyReader) all(dst []float64) error {
	if err := r.next(dst); err != nil {
		return err
	}
	return r.finish()
}

// strip is the bh rows of a cosine layer that one blockDCT.band
// transforms, as the entropy reader delivers them: the nonzero
// coefficients of row y, each at its column, are nz[from[y]:to[y]].
type strip struct {
	nz       []nonzero
	from, to []int
	step     float64
}

// read takes the next bh rows, w coefficients each, off r.
func (s *strip) read(r *entropyReader, w, bh int) error {
	s.nz, s.step = s.nz[:0], r.step
	for y := 0; y < bh; y++ {
		s.from[y] = len(s.nz)
		var err error
		if s.nz, err = r.nonzeros(s.nz, w); err != nil {
			return err
		}
		s.to[y] = len(s.nz)
	}
	return nil
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
