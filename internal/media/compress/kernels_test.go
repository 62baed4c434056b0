package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mmconf/internal/media/dsp"
	"mmconf/internal/media/image"
)

// refDCT returns the cosine-per-term orthonormal DCT-II (or, inverse set,
// DCT-III) the codec ran before its transforms became table-driven: the
// definition, kept as the reference the kernels are checked against. Each
// cosine is the definition's, evaluated once per length, so that blocks
// of 256 stay quick to check.
func refDCT(inverse bool) func([]float64) []float64 {
	cosines := map[int][]float64{} // n → cos(π·k·(i+½)/n) at k*n+i
	return func(x []float64) []float64 {
		n := len(x)
		cos, ok := cosines[n]
		if !ok {
			cos = make([]float64, n*n)
			for k := 0; k < n; k++ {
				for i := 0; i < n; i++ {
					cos[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
				}
			}
			cosines[n] = cos
		}
		out := make([]float64, n)
		if inverse {
			for i := 0; i < n; i++ {
				sum := x[0] * math.Sqrt(1/float64(n))
				for k := 1; k < n; k++ {
					sum += x[k] * math.Sqrt(2/float64(n)) * cos[k*n+i]
				}
				out[i] = sum
			}
			return out
		}
		for k := 0; k < n; k++ {
			var sum float64
			for i := 0; i < n; i++ {
				sum += x[i] * cos[k*n+i]
			}
			scale := math.Sqrt(2 / float64(n))
			if k == 0 {
				scale = math.Sqrt(1 / float64(n))
			}
			out[k] = sum * scale
		}
		return out
	}
}

// refBlocks applies a 1-D transform over the rows then the columns of
// every block×block tile of a w×h plane, edge tiles at their own size.
func refBlocks(pix []float64, w, h, block int, transform func([]float64) []float64) {
	for y0 := 0; y0 < h; y0 += block {
		bh := min(block, h-y0)
		for x0 := 0; x0 < w; x0 += block {
			bw := min(block, w-x0)
			for y := y0; y < y0+bh; y++ {
				copy(pix[y*w+x0:], transform(pix[y*w+x0:y*w+x0+bw]))
			}
			col := make([]float64, bh)
			for x := x0; x < x0+bw; x++ {
				for y := range col {
					col[y] = pix[(y0+y)*w+x]
				}
				for y, v := range transform(col) {
					pix[(y0+y)*w+x] = v
				}
			}
		}
	}
}

// What follows down to refEncode is the codec as it ran before it lifted in
// place and read residual layers a strip at a time, kept as the reference
// the one-plane kernels are compared with bit for bit: mirrored edges
// tested inside the 1-D loops, every 2-D level out of place between the
// plane and a scratch plane, a layer entropy-decoded whole into a plane of
// its own.
func refFwd53(src, dst []float64, n int) {
	half := (n + 1) / 2
	for i := 0; i < n/2; i++ {
		left := src[2*i]
		right := left
		if 2*i+2 < n {
			right = src[2*i+2]
		}
		dst[half+i] = src[2*i+1] - 0.5*(left+right)
	}
	for i := 0; i < half; i++ {
		var dl, dr float64
		if i > 0 {
			dl = dst[half+i-1]
		} else if n/2 > 0 {
			dl = dst[half]
		}
		if i < n/2 {
			dr = dst[half+i]
		} else if n/2 > 0 {
			dr = dst[half+n/2-1]
		}
		dst[i] = src[2*i] + 0.25*(dl+dr)
	}
}

func refInv53(src, dst []float64, n int) {
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		var dl, dr float64
		if i > 0 {
			dl = src[half+i-1]
		} else if n/2 > 0 {
			dl = src[half]
		}
		if i < n/2 {
			dr = src[half+i]
		} else if n/2 > 0 {
			dr = src[half+n/2-1]
		}
		dst[2*i] = src[i] - 0.25*(dl+dr)
	}
	for i := 0; i < n/2; i++ {
		left := dst[2*i]
		right := left
		if 2*i+2 < n {
			right = dst[2*i+2]
		}
		dst[2*i+1] = src[half+i] + 0.5*(left+right)
	}
}

func refFwd53Rows(src []float64, ss int, dst []float64, ds, w, n int) {
	half := (n + 1) / 2
	for i := 0; i < n/2; i++ {
		left := rowOf(src, ss, 2*i, w)
		right := left
		if 2*i+2 < n {
			right = rowOf(src, ss, 2*i+2, w)
		}
		odd, d := rowOf(src, ss, 2*i+1, w), rowOf(dst, ds, half+i, w)
		for x := range d {
			d[x] = odd[x] - 0.5*(left[x]+right[x])
		}
	}
	for i := 0; i < half; i++ {
		dl := rowOf(dst, ds, half+max(i-1, 0), w)
		dr := rowOf(dst, ds, half+min(i, n/2-1), w)
		even, s := rowOf(src, ss, 2*i, w), rowOf(dst, ds, i, w)
		for x := range s {
			s[x] = even[x] + 0.25*(dl[x]+dr[x])
		}
	}
}

func refInv53Rows(src []float64, ss int, dst []float64, ds, w, n int) {
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		dl := rowOf(src, ss, half+max(i-1, 0), w)
		dr := rowOf(src, ss, half+min(i, n/2-1), w)
		s, even := rowOf(src, ss, i, w), rowOf(dst, ds, 2*i, w)
		for x := range even {
			even[x] = s[x] - 0.25*(dl[x]+dr[x])
		}
	}
	for i := 0; i < n/2; i++ {
		left := rowOf(dst, ds, 2*i, w)
		right := left
		if 2*i+2 < n {
			right = rowOf(dst, ds, 2*i+2, w)
		}
		d, odd := rowOf(src, ss, half+i, w), rowOf(dst, ds, 2*i+1, w)
		for x := range odd {
			odd[x] = d[x] + 0.5*(left[x]+right[x])
		}
	}
}

func refAnalyze2D(pix []float64, stride, cw, ch int, scratch []float64) {
	for y := 0; y < ch; y++ {
		refFwd53(rowOf(pix, stride, y, cw), rowOf(scratch, cw, y, cw), cw)
	}
	refFwd53Rows(scratch, cw, pix, stride, cw, ch)
}

func refSynthesize2D(pix []float64, stride, cw, ch int, scratch []float64) {
	refInv53Rows(pix, stride, scratch, cw, cw, ch)
	for y := 0; y < ch; y++ {
		refInv53(rowOf(scratch, cw, y, cw), rowOf(pix, stride, y, cw), cw)
	}
}

// refWavelet2D is waveletForward2D or, inverse set, waveletInverse2D.
func refWavelet2D(pix, scratch []float64, w, h, levels int, inverse bool) {
	for l := 0; l < levels && !inverse; l++ {
		refAnalyze2D(pix, w, subband(w, l), subband(h, l), scratch)
	}
	for l := levels - 1; l >= 0 && inverse; l-- {
		refSynthesize2D(pix, w, subband(w, l), subband(h, l), scratch)
	}
}

func refPacket2D(pix, scratch []float64, stride, cw, ch, depth int, inverse bool) {
	if depth == 0 {
		return
	}
	if !inverse {
		refAnalyze2D(pix, stride, cw, ch, scratch)
	}
	hw, hh := cw/2, ch/2
	for _, off := range [4]int{0, hw, hh * stride, hh*stride + hw} {
		refPacket2D(pix[off:], scratch, stride, hw, hh, depth-1, inverse)
	}
	if inverse {
		refSynthesize2D(pix, stride, cw, ch, scratch)
	}
}

// refEntropyDecode reverses entropyEncode into dst, which must be all
// zero: exactly len(dst) coefficients, a zero run being a skip.
func refEntropyDecode(data []byte, step float64, dst []float64) error {
	for i := 0; i < len(dst); {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("compress: truncated layer payload at %d/%d", i, len(dst))
		}
		data = data[n:]
		if u != 0 {
			dst[i] = float64(unzigzag(u-1)) * step
			i++
			continue
		}
		run, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("compress: truncated zero run at %d/%d", i, len(dst))
		}
		data = data[n:]
		if run == 0 || run > uint64(len(dst)-i) {
			return fmt.Errorf("compress: corrupt zero run of %d at %d/%d", run, i, len(dst))
		}
		i += int(run)
	}
	if len(data) != 0 {
		return fmt.Errorf("compress: %d trailing bytes in layer payload", len(data))
	}
	return nil
}

// refDecoder is the decoder on whole planes. It keeps the base layer
// decoded and lifted, and each residual basis's coefficients summed, one
// plane each; after every layer, recon is their superposition: the base
// plus one synthesis of each sum. With matrix set it is the decoder before
// superposition instead: it adds each layer onto recon on its own, its
// cosine layers through matrixDCT.
type refDecoder struct {
	s                    *Stream
	recon, coef, scratch []float64
	matrix               bool
	base, cos, pkt       []float64 // nil until a layer of the kind comes
}

func newRefDecoder(s *Stream) *refDecoder {
	n := s.W * s.H
	return &refDecoder{s: s, recon: make([]float64, n), coef: make([]float64, n), scratch: make([]float64, n)}
}

func (d *refDecoder) addLayer(li int) error {
	s, l, n := d.s, d.s.Layers[li], d.s.W*d.s.H
	if li > 0 && l.Kind != CosineLayer && l.Kind != PacketLayer {
		return fmt.Errorf("compress: layer %d has unexpected kind %d", li, l.Kind)
	}
	clear(d.coef)
	if err := refEntropyDecode(l.Data, l.Step, d.coef); err != nil {
		return err
	}
	if l.Kind == PacketLayer {
		if err := checkPacket(s.W, s.H, packetDepth); err != nil {
			return err
		}
	}
	sum := func(p *[]float64) {
		if *p == nil {
			*p = make([]float64, n)
		}
		for i, v := range d.coef {
			(*p)[i] += v
		}
	}
	switch {
	case li == 0:
		refWavelet2D(d.coef, d.scratch, s.W, s.H, s.Levels, true)
		d.base = append([]float64(nil), d.coef...)
	case d.matrix && l.Kind == CosineLayer:
		matrixDCT(d.recon, d.coef, s.W, s.H, s.Block, true)
		return nil
	case d.matrix:
		refPacket2D(d.coef, d.scratch, s.W, s.W, s.H, packetDepth, true)
		for i, v := range d.coef {
			d.recon[i] += v
		}
		return nil
	case l.Kind == CosineLayer:
		sum(&d.cos)
	default:
		sum(&d.pkt)
	}
	copy(d.recon, d.base)
	if d.cos != nil {
		newBlockDCT(s.W, s.H, s.Block).transform(d.recon, d.cos, true)
	}
	if d.pkt != nil {
		copy(d.coef, d.pkt)
		refPacket2D(d.coef, d.scratch, s.W, s.W, s.H, packetDepth, true)
		for i, v := range d.coef {
			d.recon[i] += v
		}
	}
	return nil
}

// refDecode is Stream.Decode on the reference kernels.
func refDecode(s *Stream, k int) ([]float64, error) { return refDecodeOn(s, k, false) }

func refDecodeOn(s *Stream, k int, matrix bool) ([]float64, error) {
	if k <= 0 || k > len(s.Layers) {
		k = len(s.Layers)
	}
	if k == 0 || s.Layers[0].Kind != WaveletLayer {
		return nil, fmt.Errorf("compress: stream lacks a wavelet base layer")
	}
	if err := s.checkGeometry(); err != nil {
		return nil, err
	}
	d := newRefDecoder(s)
	d.matrix = matrix
	for li := 0; li < k; li++ {
		if err := d.addLayer(li); err != nil {
			return nil, err
		}
	}
	for i, v := range d.recon {
		d.recon[i] = math.Min(math.Max(v, 0), 1)
	}
	return d.recon, nil
}

// matrixDCT is blockDCT.transform as it ran before its row pass read
// nonzero coefficients and its column pass became a butterfly: per tile, a
// product of every row with the n×n matrix, then of the rows with it down
// the columns, terms with a zero factor skipped. It is the reference the
// codec's cosine layers are held to within 1e-12.
func matrixDCT(dst, src []float64, w, h, block int, inverse bool) {
	vec, at := map[int][]float64{}, map[int][]float64{} // b_k(i) at k*n+i, i*n+k
	for _, n := range []int{block, w % block, h % block} {
		vec[n] = dsp.DCTBasis(n)
		at[n] = make([]float64, n*n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				at[n][i*n+k] = vec[n][k*n+i]
			}
		}
	}
	scratch, live := make([]float64, block*block), make([]bool, block)
	for y0 := 0; y0 < h; y0 += block {
		bh := min(block, h-y0)
		for x0 := 0; x0 < w; x0 += block {
			bw := min(block, w-x0)
			along, down := at[bw], vec[bh]
			if inverse {
				along, down = vec[bw], at[bh]
			}
			for y := 0; y < bh; y++ {
				out := scratch[y*bw : (y+1)*bw]
				live[y] = false
				for i, c := range src[(y0+y)*w+x0:][:bw] {
					if c == 0 {
						continue
					}
					if !live[y] {
						live[y] = true
						clear(out)
					}
					axpy(out, c, along[i*bw:])
				}
			}
			for y := 0; y < bh; y++ {
				out := dst[(y0+y)*w+x0:][:bw]
				if !inverse {
					clear(out)
				}
				for k, m := range down[y*bh:][:bh] {
					if live[k] {
						axpy(out, m, scratch[k*bw:])
					}
				}
			}
		}
	}
}

// refEncode is Encode on the reference kernels, for options Encode accepts.
func refEncode(img *image.Gray, opts Options) *Stream {
	opts.defaults()
	st := &Stream{W: img.W, H: img.H, Levels: opts.Levels, Block: opts.Block}
	d := newRefDecoder(st)
	residual := make([]float64, len(img.Pix))
	for li, step := range append([]float64{opts.BaseStep}, opts.ResidualSteps...) {
		for i, v := range img.Pix {
			residual[i] = v - d.recon[i]
		}
		l := Layer{Kind: CosineLayer, Step: step}
		switch {
		case li == 0:
			l.Kind = WaveletLayer
			refWavelet2D(residual, d.scratch, st.W, st.H, st.Levels, false)
		case opts.Basis == PacketBasis:
			l.Kind = PacketLayer
			refPacket2D(residual, d.scratch, st.W, st.W, st.H, packetDepth, false)
		default:
			newBlockDCT(st.W, st.H, st.Block).transform(residual, residual, false)
		}
		l.Data = entropyEncode(residual, step)
		st.Layers = append(st.Layers, l)
		if err := d.addLayer(li); err != nil {
			panic(err) // its own payload
		}
	}
	return st
}

func randomPlane(rng *rand.Rand, n int, zeroShare float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		if rng.Float64() >= zeroShare {
			p[i] = rng.Float64()*2 - 1
		}
	}
	return p
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// zeroPatterns are the shapes of zeros the transform's skips take, each
// applied to every tile of a random plane: the dense plane, one nine in
// ten zero, one coefficient per tile, only the odd rows of a tile or only
// the even ones (a dead half at the butterfly's first level, and for the
// column pass a dead row at every level), and an all-zero first strip.
var zeroPatterns = map[string]func(rng *rand.Rand, p []float64, w, h, block int){
	"dense": func(*rand.Rand, []float64, int, int, int) {},
	"nine in ten zero": func(rng *rand.Rand, p []float64, _, _, _ int) {
		for i := range p {
			if rng.Intn(10) != 0 {
				p[i] = 0
			}
		}
	},
	"one per tile": func(rng *rand.Rand, p []float64, w, h, block int) {
		for y0 := 0; y0 < h; y0 += block {
			for x0 := 0; x0 < w; x0 += block {
				bw, bh := min(block, w-x0), min(block, h-y0)
				keep := rng.Intn(bw * bh)
				for y := 0; y < bh; y++ {
					for x := 0; x < bw; x++ {
						if y*bw+x != keep {
							p[(y0+y)*w+x0+x] = 0
						}
					}
				}
			}
		}
	},
	"odd rows": func(_ *rand.Rand, p []float64, w, h, block int) {
		for y := 0; y < h; y++ {
			if (y%block)%2 == 0 {
				clear(p[y*w : (y+1)*w])
			}
		}
	},
	"even rows": func(_ *rand.Rand, p []float64, w, h, block int) {
		for y := 0; y < h; y++ {
			if (y%block)%2 == 1 {
				clear(p[y*w : (y+1)*w])
			}
		}
	},
	"zero strip": func(_ *rand.Rand, p []float64, w, _, block int) {
		clear(p[:min(block*w, len(p))])
	},
}

func TestBlockDCTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type geom struct{ w, h, block int }
	cases := []geom{{250, 130, 16}, {256, 256, 16}, {5, 3, 64},
		{130, 70, 64}, {131, 133, 128}, {256, 256, 256}, {270, 9, 256}} // full and edge tiles up to maxBlock
	for block := 2; block <= 32; block++ {
		cases = append(cases, geom{37, 29, block}) // odd sides: edge tiles of most sizes
	}
	fwd, inv := refDCT(false), refDCT(true)
	for _, g := range cases {
		dct := newBlockDCT(g.w, g.h, g.block)
		for name, zero := range zeroPatterns {
			in := randomPlane(rng, g.w*g.h, 0)
			zero(rng, in, g.w, g.h, g.block)

			want := append([]float64(nil), in...)
			refBlocks(want, g.w, g.h, g.block, fwd)
			got := append([]float64(nil), in...)
			dct.transform(got, got, false)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%+v %s forward: off the reference by %g", g, name, d)
			}

			want = append([]float64(nil), in...)
			refBlocks(want, g.w, g.h, g.block, inv)
			base := randomPlane(rng, g.w*g.h, 0)
			got = append([]float64(nil), base...)
			dct.transform(got, in, true)
			for i := range got {
				got[i] -= base[i]
			}
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%+v %s inverse: off the reference by %g", g, name, d)
			}
		}
	}
}

// stripOf holds rows y0 to y0+bh of a w-wide plane of quantized
// coefficients the way strip.read does, every nonzero one marked; with
// dense set it marks the zeros too, so that nothing is skipped.
func stripOf(q []int32, w, y0, bh int, step float64, dense bool) *strip {
	s := &strip{acc: make([]float64, w*bh), mask: make([]uint64, (w*bh+63)/64)}
	for i, v := range q[y0*w:][:w*bh] {
		if v != 0 || dense {
			s.acc[i] = float64(v) * step
			s.mask[i>>6] |= 1 << (i & 63)
		}
	}
	return s
}

// Skipping what is zero — an absent coefficient in the row pass, a dead
// row or a dead half of the butterfly in the column pass — must leave
// every sum what the same kernel makes of the dense input with nothing
// skipped, bit for bit. The plane's tiles (16 and 13 wide; 16, 16 and 11
// high) hold every zero pattern the skips take.
func TestBlockDCTZeroSkipIsExact(t *testing.T) {
	const w, h, block, step = 45, 43, 16, 0.01
	rng := rand.New(rand.NewSource(2))
	q := make([]int32, w*h)
	for i := range q {
		q[i] = int32(rng.Intn(41) - 20)
	}
	tile := func(tx, ty int, keep func(x, y int) bool) {
		for y := ty * block; y < min((ty+1)*block, h); y++ {
			for x := tx * block; x < min((tx+1)*block, w); x++ {
				if !keep(x-tx*block, y-ty*block) {
					q[y*w+x] = 0
				}
			}
		}
	}
	tile(0, 0, func(_, y int) bool { return y%4 == 0 })                   // odd half dead at two levels
	tile(1, 0, func(_, y int) bool { return y%2 == 1 })                   // even half dead
	tile(2, 0, func(x, y int) bool { return x == 5 && y == 9 })           // one coefficient
	tile(0, 1, func(_, y int) bool { return y != 3 && rng.Intn(10) < 3 }) // sparse, a dead row
	tile(1, 1, func(_, _ int) bool { return false })                      // all zero
	tile(2, 1, func(_, y int) bool { return y%4 == 3 })                   // even half dead, fours part dead, odd width
	coef := make([]float64, w*h)
	for i, v := range q {
		coef[i] = float64(v) * step
	}
	dct := newBlockDCT(w, h, block)
	base := randomPlane(rng, w*h, 0)

	// The inverse: strips of nonzero coefficients, strips listing every
	// one, and the plane.
	sparse, dense, plane := append([]float64(nil), base...), append([]float64(nil), base...), append([]float64(nil), base...)
	for y0 := 0; y0 < h; y0 += block {
		bh := min(block, h-y0)
		dct.band(sparse[y0*w:], stripOf(q, w, y0, bh, step, false), bh)
		dct.band(dense[y0*w:], stripOf(q, w, y0, bh, step, true), bh)
	}
	dct.transform(plane, coef, true)
	for i := range sparse {
		if sparse[i] != dense[i] || plane[i] != dense[i] {
			t.Fatalf("inverse: pixel %d is %v from the nonzeros, %v from the plane, %v with no skip", i, sparse[i], plane[i], dense[i])
		}
	}

	// The forward pass: transform against the same row and column passes
	// run over every coefficient, every row live.
	got := append([]float64(nil), coef...)
	dct.transform(got, got, false)
	want := make([]float64, w*h)
	for y0 := 0; y0 < h; y0 += block {
		bh := min(block, h-y0)
		for x0 := 0; x0 < w; x0 += block {
			bw := min(block, w-x0)
			bx, by := dct.bases(bw, bh)
			for y := 0; y < bh; y++ {
				row := dct.rows[y*bw:][:bw]
				clear(row)
				for i, c := range coef[(y0+y)*w+x0:][:bw] {
					axpy(row, c, bx.at[i*bw:])
				}
				dct.live[y] = true
			}
			by.analyze(want[y0*w+x0:], w, dct.rows, dct.live, bw, 0, by.cols)
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("forward: coefficient %d is %v with the skips, %v without", i, got[i], want[i])
		}
	}
}

// Every Decode(k), on the thirteen geometries of
// TestCodecMatchesTwoPlaneReference, stays within 1e-12 of what the
// matrix transform the butterfly replaced makes of the same stream.
func TestDecodeNearMatrixTransform(t *testing.T) {
	type geom struct {
		w, h int
		opts Options
	}
	cases := []geom{
		{256, 256, Options{}},
		{100, 75, Options{}},
		{33, 65, Options{}},
		{33, 47, Options{Block: 8}},
		{17, 16, Options{Levels: 3}},
		{9, 40, Options{Levels: 2}},
		{64, 2, Options{Levels: 1}},
		{40, 37, Options{Block: 5}},
		{23, 31, Options{Block: 32}},
		{64, 64, Options{Basis: PacketBasis}},
		{128, 96, Options{Basis: PacketBasis, Levels: 3}},
		{100, 76, Options{Basis: PacketBasis, Levels: 2}},
		{4, 4, Options{Basis: PacketBasis, Levels: 1}},
	}
	for _, c := range cases {
		c.opts.ResidualSteps = []float64{0.04, 0.015, 0.005}
		img, err := image.Phantom(c.w, c.h, int64(c.w*c.h))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c.w)))
		for i := range img.Pix {
			img.Pix[i] = math.Min(math.Max(img.Pix[i]+0.1*rng.NormFloat64(), 0), 1)
		}
		st, err := Encode(img, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(st.Layers); k++ {
			got, err := st.Decode(k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDecodeOn(st, k, true)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got.Pix, want); d > 1e-12 {
				t.Errorf("%dx%d %+v: Decode(%d) off the matrix transform by %g", c.w, c.h, c.opts, k, d)
			}
		}
	}
}

// The row-wise vertical lifting must give every column exactly what the
// 1-D kernels give it, for odd and even heights, inside a wider plane: it
// works where the rows lie, the even samples of a column above its odd
// ones, so a column is split on the way in (analysis) or out (synthesis).
func TestLiftingRowsMatchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// at is where sample y of an n-long column lies once split.
	at := func(y, n int) int { return (y&1)*((n+1)/2) + y/2 }
	for n := 2; n <= 19; n++ {
		const w, stride = 7, 11
		src := randomPlane(rng, n*stride, 0)
		for _, k := range []struct {
			name    string
			rows    func(p []float64, stride, w, n int)
			line    func(src, dst []float64, n int)
			splitIn bool
		}{{"fwd53", fwd53Rows, fwd53, true}, {"inv53", inv53Rows, inv53, false}} {
			got := append([]float64(nil), src...)
			k.rows(got, stride, w, n)
			in, out, want := make([]float64, n), make([]float64, n), make([]float64, n)
			for x := 0; x < stride; x++ {
				for y := range in {
					switch {
					case x >= w: // outside the rectangle: untouched
						want[y] = src[y*stride+x]
					case k.splitIn:
						in[y] = src[at(y, n)*stride+x]
					default:
						in[y] = src[y*stride+x]
					}
				}
				if x < w {
					k.line(in, out, n)
					for y, v := range out {
						if k.splitIn {
							want[y] = v
						} else {
							want[at(y, n)] = v
						}
					}
				}
				for y := range want {
					if got[y*stride+x] != want[y] {
						t.Fatalf("%s n=%d: column %d row %d is %v, want %v", k.name, n, x, y, got[y*stride+x], want[y])
					}
				}
			}
		}
	}
}

// analyze2D on a rectangle inside a larger plane (what the packet
// transform does to its quadrants) must not touch a pixel outside it.
func TestLevelStaysInsideItsRectangle(t *testing.T) {
	const stride, rows, x0, y0, cw, ch = 23, 17, 5, 4, 9, 7
	rng := rand.New(rand.NewSource(4))
	plane := randomPlane(rng, stride*rows, 0)
	orig := append([]float64(nil), plane...)
	sc := newLiftScratch(cw, ch)
	analyze2D(plane[y0*stride+x0:], stride, cw, ch, sc)
	changed := false
	for i := range plane {
		x, y := i%stride, i/stride
		inside := x >= x0 && x < x0+cw && y >= y0 && y < y0+ch
		if !inside && plane[i] != orig[i] {
			t.Fatalf("pixel (%d,%d) outside the rectangle changed", x, y)
		}
		changed = changed || plane[i] != orig[i]
	}
	if !changed {
		t.Fatal("analysis changed nothing")
	}
	synthesize2D(plane[y0*stride+x0:], stride, cw, ch, sc, inv53)
	if d := maxAbsDiff(plane, orig); d > 1e-12 {
		t.Errorf("round trip drifted by %g", d)
	}
}

// What makes residual layers meaningful: layer k+1 codes the image minus
// exactly what Decode(k) reconstructs (before clamping). Re-deriving each
// payload from the decoder's own sum must reproduce it byte for byte, on
// both residual bases and on a plane with edge tiles.
func TestLayersCodeWhatTheDecoderMisses(t *testing.T) {
	for name, c := range map[string]struct {
		w, h int
		opts Options
	}{
		"cosine":       {128, 128, Options{ResidualSteps: []float64{0.04, 0.015, 0.005, 0.002}}},
		"cosine edges": {100, 70, Options{ResidualSteps: []float64{0.04, 0.015, 0.005, 0.002}, Levels: 3}},
		"packet":       {128, 128, Options{ResidualSteps: []float64{0.04, 0.015, 0.005, 0.002}, Basis: PacketBasis}},
	} {
		img, err := image.Phantom(c.w, c.h, 12)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Encode(img, c.opts)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		d := &decoder{s: st, recon: make([]float64, c.w*c.h)}
		for k := 1; k < len(st.Layers); k++ {
			clear(d.recon)
			if err := d.reconstruct(k, false); err != nil {
				t.Fatalf("%s: layer %d: %v", name, k-1, err)
			}
			dec, err := st.Decode(k)
			if err != nil {
				t.Fatalf("%s: Decode(%d): %v", name, k, err)
			}
			residual := make([]float64, len(img.Pix))
			for i, v := range d.recon {
				if clamped := math.Min(math.Max(v, 0), 1); dec.Pix[i] != clamped {
					t.Fatalf("%s: Decode(%d) pixel %d = %v, running sum clamps to %v", name, k, i, dec.Pix[i], clamped)
				}
				residual[i] = img.Pix[i] - v
			}
			next := st.Layers[k]
			if next.Kind == PacketLayer {
				err = packetForward2D(residual, c.w, c.h, packetDepth)
			} else {
				newBlockDCT(c.w, c.h, st.Block).transform(residual, residual, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(entropyEncode(residual, next.Step), next.Data) {
				t.Errorf("%s: layer %d does not code image − Decode(%d)", name, k, k)
			}
		}
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// Peeling the mirrored edges out of the 1-D loops changes no operand and
// no order: every length gives the bits the in-loop tests gave.
func TestLifting1DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 70; n++ {
		src := randomPlane(rng, n, 0.2)
		got, want := make([]float64, n), make([]float64, n)
		fwd53(src, got, n)
		refFwd53(src, want, n)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("fwd53 n=%d: sample %d is %v, reference %v", n, i, got[i], want[i])
		}
		inv53(src, got, n)
		refInv53(src, want, n)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("inv53 n=%d: sample %d is %v, reference %v", n, i, got[i], want[i])
		}
	}
}

// The codec that works in one plane must produce what the two-plane codec
// produced, to the bit: the layer payloads of Encode and the pixels of
// every Decode(k), on both residual bases, over geometries that put an odd
// subband at every level, a plane narrower than a tile, a last strip
// shorter than the others, and a plane two rows high.
func TestCodecMatchesTwoPlaneReference(t *testing.T) {
	steps := []float64{0.04, 0.015, 0.005}
	type geom struct {
		w, h int
		opts Options
	}
	cases := []geom{
		{256, 256, Options{}},
		{100, 75, Options{}},
		{33, 65, Options{}},         // sides 33/17/9/5 and 65/33/17/9
		{33, 47, Options{Block: 8}}, // 47 % 8 = 7
		{17, 16, Options{Levels: 3}},
		{9, 40, Options{Levels: 2}},  // W < Block
		{64, 2, Options{Levels: 1}},  // H = 2 < Block
		{40, 37, Options{Block: 5}},  // a 2-row last strip
		{23, 31, Options{Block: 32}}, // one tile, smaller than the block both ways
		{64, 64, Options{Basis: PacketBasis}},
		{128, 96, Options{Basis: PacketBasis, Levels: 3}},
		{100, 76, Options{Basis: PacketBasis, Levels: 2}}, // packet quadrants 25×19: odd inside the recursion
		{4, 4, Options{Basis: PacketBasis, Levels: 1}},
	}
	for _, c := range cases {
		c.opts.ResidualSteps = steps
		img, err := image.Phantom(c.w, c.h, int64(c.w*c.h))
		if err != nil {
			t.Fatal(err)
		}
		// Texture on top of the phantom's flat regions, so that every layer
		// has coefficients in every tile.
		rng := rand.New(rand.NewSource(int64(c.w)))
		for i := range img.Pix {
			img.Pix[i] = math.Min(math.Max(img.Pix[i]+0.1*rng.NormFloat64(), 0), 1)
		}
		st, err := Encode(img, c.opts)
		if err != nil {
			t.Fatalf("%dx%d %+v: Encode: %v", c.w, c.h, c.opts, err)
		}
		ref := refEncode(img, c.opts)
		if len(st.Layers) != len(ref.Layers) {
			t.Fatalf("%dx%d: %d layers, reference %d", c.w, c.h, len(st.Layers), len(ref.Layers))
		}
		for li, l := range st.Layers {
			if r := ref.Layers[li]; l.Kind != r.Kind || l.Step != r.Step || !bytes.Equal(l.Data, r.Data) {
				t.Errorf("%dx%d %+v: layer %d differs from the reference's (%d bytes, reference %d)", c.w, c.h, c.opts, li, len(l.Data), len(r.Data))
			}
		}
		for k := 1; k <= len(st.Layers); k++ {
			got, err := st.Decode(k)
			if err != nil {
				t.Fatalf("%dx%d: Decode(%d): %v", c.w, c.h, k, err)
			}
			want, err := refDecode(ref, k)
			if err != nil {
				t.Fatalf("%dx%d: reference Decode(%d): %v", c.w, c.h, k, err)
			}
			if i := sameBits(got.Pix, want); i >= 0 {
				t.Errorf("%dx%d %+v: Decode(%d) pixel %d is %v, reference %v", c.w, c.h, c.opts, k, i, got.Pix[i], want[i])
			}
		}
	}
}

// FuzzDecodeMatchesReference encodes a small image the engine chooses,
// under options it chooses: depth, block 2–32, base and residual steps,
// and the cosine basis, the packet basis, or a stream that splices the two
// encodes' layers together. Every Decode(k) must stay within 1e-12 of the
// matrix transform decoding the layers one at a time, and, of an encoded
// stream, be bit for bit the clamp of the reconstruction Encode coded
// layer k+1 against: that reconstruction re-codes to layer k+1's payload.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add(uint8(22), uint8(18), uint8(3), uint8(14), uint8(0), uint8(25), uint8(90), uint8(30), uint8(10), int64(1))
	f.Add(uint8(7), uint8(1), uint8(0), uint8(3), uint8(0), uint8(60), uint8(200), uint8(0), uint8(40), int64(2))
	f.Add(uint8(5), uint8(3), uint8(1), uint8(6), uint8(1), uint8(25), uint8(90), uint8(30), uint8(10), int64(3))
	f.Add(uint8(3), uint8(4), uint8(2), uint8(30), uint8(2), uint8(25), uint8(90), uint8(30), uint8(10), int64(4))
	f.Fuzz(func(t *testing.T, w, h, levels, block, basis, base, s1, s2, s3 uint8, seed int64) {
		W, H := 2+int(w%47), 2+int(h%47)
		if basis%3 != 0 { // the packet basis tiles the plane by 4×4
			W, H = 4*(1+int(w%12)), 4*(1+int(h%12))
		}
		opts := Options{Levels: 1 + int(levels%4), Block: 2 + int(block%31), BaseStep: 0.01 + float64(base)/255*0.3, ResidualSteps: []float64{}}
		for _, s := range []uint8{s1, s2, s3} {
			if s != 0 {
				opts.ResidualSteps = append(opts.ResidualSteps, 0.001+float64(s)/255*0.1)
			}
		}
		img, err := image.Phantom(W, H, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range img.Pix {
			img.Pix[i] = math.Min(math.Max(img.Pix[i]+0.1*rng.NormFloat64(), 0), 1)
		}
		if basis%3 == 1 {
			opts.Basis = PacketBasis
		}
		st, err := Encode(img, opts)
		if err != nil {
			return // levels too deep for the plane
		}
		encoded := basis%3 != 2
		if !encoded {
			opts.Basis = PacketBasis
			pkt, err := Encode(img, opts)
			if err != nil {
				t.Fatal(err)
			}
			for li := 2; li < len(st.Layers); li += 2 {
				st.Layers[li] = pkt.Layers[li]
			}
		}
		d := &decoder{s: st, recon: make([]float64, W*H)}
		for k := 1; k <= len(st.Layers); k++ {
			got, err := st.Decode(k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDecodeOn(st, k, true)
			if err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(got.Pix, want); diff > 1e-12 {
				t.Fatalf("%dx%d %+v: Decode(%d) off the matrix transform by %g", W, H, opts, k, diff)
			}
			if !encoded {
				continue
			}
			clear(d.recon)
			if err := d.reconstruct(k, false); err != nil {
				t.Fatal(err)
			}
			residual := make([]float64, W*H)
			for i, v := range d.recon {
				if c := math.Min(math.Max(v, 0), 1); math.Float64bits(got.Pix[i]) != math.Float64bits(c) {
					t.Fatalf("%dx%d %+v: Decode(%d) pixel %d is %v, its reconstruction clamps to %v", W, H, opts, k, i, got.Pix[i], c)
				}
				residual[i] = img.Pix[i] - v
			}
			if k == len(st.Layers) {
				continue
			}
			if st.Layers[k].Kind == PacketLayer {
				err = packetForward2D(residual, W, H, packetDepth)
			} else {
				newBlockDCT(W, H, st.Block).transform(residual, residual, false)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(entropyEncode(residual, st.Layers[k].Step), st.Layers[k].Data) {
				t.Fatalf("%dx%d %+v: layer %d does not code the image less Decode(%d)'s reconstruction", W, H, opts, k, k)
			}
		}
	})
}

// Decode reads a stream's cosine layers side by side and its packet
// layers after them, but the fault it reports is the one a decoder taking
// the layers one at a time meets first: the lowest faulty layer's, as the
// reference reports it. Streams mixing the two bases decode, fault-free,
// to the reference's pixels bit for bit.
func TestDecodeReportsTheFirstLayersFault(t *testing.T) {
	img, _ := image.Phantom(32, 32, 17)
	steps := []float64{0.04, 0.015, 0.005}
	cos, err := Encode(img, Options{ResidualSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Encode(img, Options{ResidualSteps: steps, Basis: PacketBasis})
	if err != nil {
		t.Fatal(err)
	}
	narrow, _ := image.Phantom(30, 30, 17) // no packet tiling
	odd, err := Encode(narrow, Options{ResidualSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	// The faults, each as a layer carrying it: a truncated last token
	// (late in the plane), a zero run of zero (at its start), a trailing
	// byte (after it), and a kind no decoder knows.
	late := func(l Layer) Layer { l.Data = l.Data[:len(l.Data)-1]; return l }
	early := func(l Layer) Layer { l.Data = []byte{0, 0}; return l }
	after := func(l Layer) Layer { l.Data = append(l.Data[:len(l.Data):len(l.Data)], 2); return l }
	kind := func(l Layer) Layer { l.Kind = 9; return l }
	for name, c := range map[string]struct {
		s     *Stream
		fault []Layer // the stream's layers
		first int     // the lowest faulty layer
	}{
		"later cosine faulty sooner":  {cos, []Layer{cos.Layers[0], late(cos.Layers[1]), early(cos.Layers[2]), cos.Layers[3]}, 1},
		"trailing byte, then a fault": {cos, []Layer{cos.Layers[0], cos.Layers[1], after(cos.Layers[2]), early(cos.Layers[3])}, 2},
		"kind after a fault":          {cos, []Layer{cos.Layers[0], late(cos.Layers[1]), kind(cos.Layers[2]), cos.Layers[3]}, 1},
		"kind before a fault":         {cos, []Layer{cos.Layers[0], kind(cos.Layers[1]), early(cos.Layers[2]), cos.Layers[3]}, 1},
		"packet before a cosine":      {cos, []Layer{cos.Layers[0], late(pkt.Layers[1]), early(cos.Layers[2]), cos.Layers[3]}, 1},
		"cosine before a packet":      {cos, []Layer{cos.Layers[0], cos.Layers[1], early(cos.Layers[2]), late(pkt.Layers[3])}, 2},
		"packet tiling after a fault": {odd, []Layer{odd.Layers[0], late(odd.Layers[1]), odd.Layers[2], pkt.Layers[3]}, 1},
		"packet tiling":               {odd, []Layer{odd.Layers[0], odd.Layers[1], pkt.Layers[2], early(odd.Layers[3])}, 2},
	} {
		s := *c.s
		s.Layers = c.fault
		alone := s
		alone.Layers = s.Layers[:c.first+1]
		_, err := s.Decode(0)
		_, want := alone.Decode(0)
		_, ref := refDecode(&s, 0)
		if err == nil || want == nil || ref == nil || err.Error() != want.Error() || err.Error() != ref.Error() {
			t.Errorf("%s: Decode: %v; layer %d's own fault: %v; the reference: %v", name, err, c.first, want, ref)
		}
	}
	for name, layers := range map[string][]Layer{
		"cosine, packet, cosine": {cos.Layers[0], cos.Layers[1], pkt.Layers[2], cos.Layers[3]},
		"packet, cosine, packet": {cos.Layers[0], pkt.Layers[1], cos.Layers[2], pkt.Layers[3]},
	} {
		s := *cos
		s.Layers = layers
		for k := 1; k <= len(layers); k++ {
			got, err := s.Decode(k)
			if err != nil {
				t.Fatalf("%s: Decode(%d): %v", name, k, err)
			}
			want, err := refDecode(&s, k)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got.Pix, want); i >= 0 {
				t.Errorf("%s: Decode(%d) pixel %d is %v, reference %v", name, k, i, got.Pix[i], want[i])
			}
			if want, _ := refDecodeOn(&s, k, true); maxAbsDiff(got.Pix, want) > 1e-12 {
				t.Errorf("%s: Decode(%d) off the matrix transform by %g", name, k, maxAbsDiff(got.Pix, want))
			}
		}
	}
}

// The clamp by bit pattern is math.Min(math.Max(v, 0), 1) to the bit on
// every float64: both zeros, both infinities, NaNs of either sign and any
// payload, subnormals, the neighbours of 0 and 1, and random bit patterns.
func TestClamp01IsMinMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000123),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(0, 1), 0.5, -0.5, 3}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64())
	}
	for _, v := range vals {
		if got, want := clamp01(v), math.Min(math.Max(v, 0), 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clamp01(%v = %#x) = %#x, want %#x", v, math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// readPieces reads a plane of total coefficients through one entropyReader
// in pieces of the given lengths, each added onto a zeroed piece.
func readPieces(data []byte, step float64, total int, pieces []int) ([]float64, error) {
	out := make([]float64, total)
	rd := entropyReader{data: data, step: step, total: total}
	rest := out
	for _, n := range pieces {
		if err := rd.add(rest[:n]); err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	return out, rd.finish()
}

// readNonzeros reads the same plane through the nonzero read, in the same
// pieces, as a list of positions in the plane and dequantized values.
func readNonzeros(data []byte, step float64, total int, pieces []int) ([]int, []float64, error) {
	var pos []int
	var vals []float64
	rd := entropyReader{data: data, step: step, total: total}
	at := 0
	for _, n := range pieces {
		nz, err := rd.nonzeros(nil, n)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range nz {
			pos = append(pos, at+int(c.col))
			vals = append(vals, float64(c.q)*step)
		}
		at += n
	}
	return pos, vals, rd.finish()
}

// checkPieces requires of one way to cut the plane what the whole-plane
// reference decoder gives: from the dense read the same coefficients, from
// the nonzero read the same nonzero ones as positions and values, or from
// both the same error.
func checkPieces(t *testing.T, name string, data []byte, step float64, pieces []int) {
	t.Helper()
	total := 0
	for _, n := range pieces {
		total += n
	}
	got, err := readPieces(data, step, total, pieces)
	want := make([]float64, total)
	wantErr := refEntropyDecode(data, step, want)
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s cut %v: %v, whole plane: %v", name, pieces, err, wantErr)
	case err == nil && sameBits(got, want) >= 0:
		t.Fatalf("%s cut %v: read %v, whole plane %v", name, pieces, got, want)
	}
	pos, vals, err := readNonzeros(data, step, total, pieces)
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s cut %v: nonzero read: %v, whole plane: %v", name, pieces, err, wantErr)
	case err != nil:
		return
	}
	var wantPos []int
	var wantVals []float64
	for i, v := range want {
		if v != 0 {
			wantPos, wantVals = append(wantPos, i), append(wantVals, v)
		}
	}
	if fmt.Sprint(pos) != fmt.Sprint(wantPos) || sameBits(vals, wantVals) >= 0 || len(vals) != len(wantVals) {
		t.Fatalf("%s cut %v: nonzero read %v at %v, whole plane %v at %v", name, pieces, vals, pos, wantVals, wantPos)
	}
}

// However a plane is cut into strips, the reader — through the dense
// read and through the nonzero read — must deliver the coefficients and
// refuse the payloads the whole-plane decoder did, with the same words:
// every cut of a 9-coefficient plane, so every defect —
// the truncation, the over-long run, the trailing byte — falls before,
// on and after a strip boundary, and every run is carried across one.
func TestEntropyReaderEveryCut(t *testing.T) {
	const n = 9
	plane := []float64{3, 0, 0, 0, 0, -2, 0, 0, 0} // runs of 4 and 3, the last to the end
	intact := entropyEncode(plane, 1)
	payloads := map[string][]byte{
		"intact":             intact,
		"all zero":           entropyEncode(make([]float64, n), 1),
		"no zero":            entropyEncode([]float64{1, -1, 2, -2, 3, -3, 4, -4, 5}, 1),
		"empty":              nil,
		"truncated payload":  intact[:3], // ends after the first run
		"truncated zero run": intact[:2], // ends inside it
		"trailing bytes":     append(intact[:len(intact):len(intact)], 0x05),
		"short by one":       entropyEncode(plane[:n-1], 1),
		"long by one":        entropyEncode(append(plane[:n:n], 0), 1),
		"zero run of 0":      {8, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2},
		"run past the plane": {2, 2, 0, 8},
		"run of 2^63":        {2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"overlong varint":    {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for cut := 0; cut < 1<<(n-1); cut++ { // bit i set: a boundary after coefficient i
		var pieces []int
		last := 0
		for i := 1; i <= n; i++ {
			if i == n || cut&(1<<(i-1)) != 0 {
				pieces = append(pieces, i-last)
				last = i
			}
		}
		for name, data := range payloads {
			checkPieces(t, name, data, 1, pieces)
		}
	}
	if _, err := readPieces(intact, 1, n, []int{n}); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
	// The dense read works through the nonzero read a bounded piece at a
	// time: pieces longer than that, with runs across its seams.
	long := randomPlane(rand.New(rand.NewSource(6)), 1000, 0.7)
	for _, pieces := range [][]int{{1000}, {255, 745}, {256, 256, 488}, {999, 1}} {
		checkPieces(t, "long", entropyEncode(long, 0.25), 0.25, pieces)
	}
	// Reading less than the plane is a caller's mistake finish reports.
	rd := entropyReader{data: intact, step: 1, total: n}
	if err := rd.add(make([]float64, n-1)); err != nil {
		t.Fatal(err)
	}
	if err := rd.finish(); err == nil {
		t.Error("finish accepted a plane one coefficient short")
	}
}

// FuzzEntropyStrips is the differential test above on bytes and cuts the
// engine chooses.
func FuzzEntropyStrips(f *testing.F) {
	f.Add(entropyEncode([]float64{3, 0, 0, 0, 0, -2, 0, 0, 0}, 1), []byte{2, 3, 4})
	f.Add(entropyEncode([]float64{0, 0, 0, 0, 0, 0, 1}, 1), []byte{1, 1, 5})
	f.Add([]byte{2, 2, 0, 8}, []byte{4, 4})
	f.Add([]byte{0, 200, 1, 7}, []byte{16, 16, 16, 16})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(cuts) > 64 {
			cuts = cuts[:64]
		}
		pieces := make([]int, len(cuts)) // a zero-length piece is legal
		for i, c := range cuts {
			pieces[i] = int(c)
		}
		checkPieces(t, "fuzz", data, 0.5, pieces)
	})
}

// bytesAllocated is what f allocates, the least of three runs.
func bytesAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// A decode allocates the plane it returns and nothing else, whatever the
// layer count: the strip of cosine coefficients, the tile and lifting
// scratch and the decoder come back from a pool warmed by the decode
// before, and the cosine tables are tabulated once for the process — a
// second W×H plane, a strip or a table per decode fails this. An encode
// works in two planes: the running reconstruction and the residual.
func TestDecodeAllocatesOnePlane(t *testing.T) {
	const w, h = 256, 256
	img, _ := image.Phantom(w, h, 15)
	st, err := Encode(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const plane = 8 * w * h
	// Under the race detector a sync.Pool drops a quarter of what it is
	// handed, so the decode is counted only without it.
	for k := 1; k <= len(st.Layers) && !raceEnabled; k++ {
		got := bytesAllocated(func() {
			if _, err := st.Decode(k); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(plane + 1<<10); got > limit {
			t.Errorf("Decode(%d) allocated %d bytes, more than one plane (%d)", k, got, limit)
		}
		// The image and its plane.
		if n := testing.AllocsPerRun(3, func() { st.Decode(k) }); n > 2 {
			t.Errorf("Decode(%d) made %v allocations, more than 2", k, n)
		}
	}
	// Coarse steps keep the payloads, and the slices they grew in, well
	// under a plane: append may have allocated five times what it kept.
	for _, basis := range []ResidualBasis{CosineBasis, PacketBasis} {
		var enc *Stream
		got := bytesAllocated(func() {
			if enc, err = Encode(img, Options{ResidualSteps: []float64{0.04}, Basis: basis}); err != nil {
				t.Fatal(err)
			}
		})
		limit := uint64(2*plane + 6*enc.PrefixBytes(0) + 8*w*enc.Block + 16<<10)
		if limit >= 3*plane {
			t.Fatalf("basis %d: payloads of %d bytes leave the bound unable to tell two planes from three", basis, enc.PrefixBytes(0))
		}
		if got > limit {
			t.Errorf("Encode (basis %d) allocated %d bytes, more than two planes and its payloads (%d)", basis, got, limit)
		}
	}
}

// Unmarshal hands out slices of the body it was given, so nothing that
// follows may write through them: not Decode at any layer count, and not
// an append to one layer running on into the next.
func TestUnmarshalAliasesBodyReadOnly(t *testing.T) {
	img, _ := image.Phantom(64, 48, 16)
	for _, basis := range []ResidualBasis{CosineBasis, PacketBasis} {
		st, err := Encode(img, Options{Basis: basis})
		if err != nil {
			t.Fatal(err)
		}
		header, body, err := st.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		pristine := append([]byte(nil), body...)
		back, err := Unmarshal(header, body)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for li, l := range back.Layers {
			if len(l.Data) == 0 || &l.Data[0] != &body[off] {
				t.Fatalf("layer %d is not the body's bytes at %d", li, off)
			}
			if cap(l.Data) != len(l.Data) {
				t.Errorf("layer %d: %d bytes with room for %d: an append would write into the next layer", li, len(l.Data), cap(l.Data))
			}
			off += len(l.Data)
		}
		for k := 0; k <= len(back.Layers); k++ {
			if _, err := back.Decode(k); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, pristine) {
				t.Fatalf("basis %d: Decode(%d) wrote to the body it was unmarshalled from", basis, k)
			}
		}
	}
}

// hostileHeaders are MMLY headers that made the decoder spin forever
// (Block 0), die of memory exhaustion (Levels 0x7FFFFFF0), ask for 17 GB
// before reading a byte (65535×65535), or — few pixels, so within any bound
// on W·H — size a cosine table by a plane 32768 wide and 2 high (16 GiB).
func hostileHeaders(valid []byte) map[string][]byte {
	patch := func(fields ...uint32) []byte { // offset, value pairs
		h := append([]byte(nil), valid...)
		for i := 0; i < len(fields); i += 2 {
			binary.LittleEndian.PutUint32(h[fields[i]:], fields[i+1])
		}
		return h
	}
	return map[string][]byte{
		"block 0":     patch(16, 0),
		"levels 2^31": patch(12, 0x7FFFFFF0),
		"65535 wide":  patch(4, 65535, 8, 65535),
		"thin plane":  patch(4, 32768, 8, 2, 12, 1, 16, 1<<30),
	}
}

func TestHostileHeadersFailFast(t *testing.T) {
	img, _ := image.Phantom(64, 64, 13)
	st, err := Encode(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	header, body, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range hostileHeaders(header) {
		start := time.Now()
		if _, err := Unmarshal(h, body); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := PrefixLen(h, 1); err == nil {
			t.Errorf("%s: accepted by PrefixLen", name)
		}
		// Microseconds in practice; the slack is for a loaded test host.
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("%s: rejection took %v", name, took)
		}
	}
	// The same geometry in a Stream built by hand never reaches a loop or
	// an allocation either.
	for name, s := range map[string]Stream{
		"block 0":     {W: 64, H: 64, Levels: 4, Block: 0, Layers: st.Layers},
		"levels 2^31": {W: 64, H: 64, Levels: 0x7FFFFFF0, Block: 16, Layers: st.Layers},
		"65535 wide":  {W: 65535, H: 65535, Levels: 4, Block: 16, Layers: st.Layers},
		"thin plane":  {W: 32768, H: 2, Levels: 1, Block: 1 << 30, Layers: st.Layers},
	} {
		if _, err := s.Decode(0); err == nil {
			t.Errorf("hand-built %s: decoded", name)
		}
	}
}

// FuzzUnmarshalDecode feeds Unmarshal and Decode what client.GetCmp feeds
// them — bytes off the network. Whatever they are: no panic, no hang, and
// at every layer count either the error or the image, of the size the
// header states, that the two-plane reference decoder gives.
func FuzzUnmarshalDecode(f *testing.F) {
	img, _ := image.Phantom(24, 20, 14) // small: the engine minimizes what it keeps, byte by byte
	for _, opts := range []Options{{}, {Basis: PacketBasis, Levels: 2}} {
		st, err := Encode(img, opts)
		if err != nil {
			f.Fatal(err)
		}
		header, body, err := st.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(header, body)
		f.Add(header, body[:st.PrefixBytes(2)])   // a partial transfer
		f.Add(header, body[:st.PrefixBytes(2)-3]) // cut inside a layer
		for _, h := range hostileHeaders(header) {
			f.Add(h, body)
		}
	}
	f.Fuzz(func(t *testing.T, header, body []byte) {
		s, err := Unmarshal(header, body)
		if err != nil {
			return
		}
		if s.W*s.H > 1<<12 {
			return // legal, but too slow to decode a million times
		}
		w, h := int(binary.LittleEndian.Uint32(header[4:])), int(binary.LittleEndian.Uint32(header[8:]))
		for k := 0; k <= len(s.Layers); k++ {
			dec, err := s.Decode(k)
			want, wantErr := refDecode(s, k)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("Decode(%d): %v; the two-plane reference: %v", k, err, wantErr)
			}
			if err != nil {
				continue
			}
			if dec.W != w || dec.H != h || len(dec.Pix) != w*h {
				t.Fatalf("decoded %dx%d (%d pixels) from a %dx%d header", dec.W, dec.H, len(dec.Pix), w, h)
			}
			if i := sameBits(dec.Pix, want); i >= 0 {
				t.Fatalf("Decode(%d) pixel %d is %v, the two-plane reference %v", k, i, dec.Pix[i], want[i])
			}
		}
	})
}
