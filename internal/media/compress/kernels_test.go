package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"mmconf/internal/media/image"
)

// refDCT2 and refIDCT2 are the cosine-per-term orthonormal DCT-II/III the
// codec ran before its transforms became table-driven: the definition,
// kept as the reference the kernels are checked against.
func refDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		out[k] = sum * scale
	}
	return out
}

func refIDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := x[0] * math.Sqrt(1/float64(n))
		for k := 1; k < n; k++ {
			sum += x[k] * math.Sqrt(2/float64(n)) * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[i] = sum
	}
	return out
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

func TestBlockDCTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type geom struct{ w, h, block int }
	cases := []geom{{250, 130, 16}, {256, 256, 16}, {5, 3, 64}}
	for block := 2; block <= 32; block++ {
		cases = append(cases, geom{37, 29, block}) // odd sides: edge tiles of most sizes
	}
	for _, g := range cases {
		dct := newBlockDCT(g.w, g.h, g.block)
		for _, zeroShare := range []float64{0, 0.9} {
			in := randomPlane(rng, g.w*g.h, zeroShare)

			want := append([]float64(nil), in...)
			refBlocks(want, g.w, g.h, g.block, refDCT2)
			got := append([]float64(nil), in...)
			dct.transform(got, got, false)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%+v forward: off the reference by %g", g, d)
			}

			want = append([]float64(nil), in...)
			refBlocks(want, g.w, g.h, g.block, refIDCT2)
			base := randomPlane(rng, g.w*g.h, 0)
			got = append([]float64(nil), base...)
			dct.transform(got, in, true)
			for i := range got {
				got[i] -= base[i]
			}
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%+v inverse: off the reference by %g", g, d)
			}
		}
	}
}

// Skipping the terms with a zero factor must leave every sum what the
// dense product gives: the same two passes, no skip, compared with ==.
func TestBlockDCTZeroSkipIsExact(t *testing.T) {
	const w, h, block = 40, 24, 16 // tiles 16, 8 wide; 16, 8 high
	rng := rand.New(rand.NewSource(2))
	coef := randomPlane(rng, w*h, 0.8)
	for y := 0; y < 16; y++ { // one tile entirely zero
		clear(coef[y*w+16 : y*w+32])
	}
	clear(coef[3*w : 4*w]) // and a zero row through the others
	dct := newBlockDCT(w, h, block)
	for _, inverse := range []bool{false, true} {
		base := randomPlane(rng, w*h, 0)
		got := append([]float64(nil), base...)
		dct.transform(got, coef, inverse)

		want := append([]float64(nil), base...)
		for y0 := 0; y0 < h; y0 += block {
			bh := min(block, h-y0)
			for x0 := 0; x0 < w; x0 += block {
				bw := min(block, w-x0)
				bx, by := dct.bases(bw, bh)
				along, down := bx.at, by.vec
				if inverse {
					along, down = bx.vec, by.at
				}
				mid := make([]float64, bw*bh)
				for y := 0; y < bh; y++ {
					for i := 0; i < bw; i++ {
						for k := 0; k < bw; k++ {
							mid[y*bw+k] += coef[(y0+y)*w+x0+i] * along[i*bw+k]
						}
					}
				}
				for y := 0; y < bh; y++ {
					out := want[(y0+y)*w+x0:][:bw]
					if !inverse {
						clear(out)
					}
					for k := 0; k < bh; k++ {
						for x := range out {
							out[x] += down[y*bh+k] * mid[k*bw+x]
						}
					}
				}
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("inverse=%v: pixel %d is %v with the skip, %v without", inverse, i, got[i], want[i])
			}
		}
	}
}

// The row-wise vertical lifting must give every column exactly what the
// 1-D kernels give it, for odd and even heights, inside a wider plane.
func TestLiftingRowsMatchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 19; n++ {
		const w, ss, ds = 7, 11, 9
		src := randomPlane(rng, n*ss, 0)
		for _, k := range []struct {
			name string
			rows func(src []float64, ss int, dst []float64, ds, w, n int)
			line func(src, dst []float64, n int)
		}{{"fwd53", fwd53Rows, fwd53}, {"inv53", inv53Rows, inv53}} {
			got := make([]float64, n*ds)
			for i := range got {
				got[i] = -7 // sentinel: columns ≥ w stay untouched
			}
			k.rows(src, ss, got, ds, w, n)
			col, want := make([]float64, n), make([]float64, n)
			for x := 0; x < ds; x++ {
				for y := range col {
					col[y] = src[y*ss+x]
					want[y] = -7
				}
				if x < w {
					k.line(col, want, n)
				}
				for y := range want {
					if got[y*ds+x] != want[y] {
						t.Fatalf("%s n=%d: column %d row %d is %v, want %v", k.name, n, x, y, got[y*ds+x], want[y])
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
	scratch := make([]float64, cw*ch)
	analyze2D(plane[y0*stride+x0:], stride, cw, ch, scratch)
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
	synthesize2D(plane[y0*stride+x0:], stride, cw, ch, scratch)
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
		d := st.newDecoder(make([]float64, c.w*c.h))
		for k := 1; k < len(st.Layers); k++ {
			if err := d.addLayer(k - 1); err != nil {
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
				err = packetForward2D(residual, make([]float64, len(residual)), c.w, c.h, packetDepth)
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
// either an error or an image of the size the header states.
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
		dec, err := s.Decode(0)
		if err != nil {
			return
		}
		w, h := int(binary.LittleEndian.Uint32(header[4:])), int(binary.LittleEndian.Uint32(header[8:]))
		if dec.W != w || dec.H != h || len(dec.Pix) != w*h {
			t.Fatalf("decoded %dx%d (%d pixels) from a %dx%d header", dec.W, dec.H, len(dec.Pix), w, h)
		}
	})
}
