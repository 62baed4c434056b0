package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmconf/internal/media/image"
)

func TestLifting1DRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(63)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		fw := make([]float64, n)
		back := make([]float64, n)
		fwd53(src, fw, n)
		inv53(fw, back, n)
		for i := range src {
			if math.Abs(src[i]-back[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWavelet2DRoundTrip(t *testing.T) {
	for _, size := range [][2]int{{64, 64}, {65, 33}, {100, 70}, {16, 128}} {
		w, h := size[0], size[1]
		img, err := image.Phantom(w, h, 1)
		if err != nil {
			t.Fatal(err)
		}
		coeffs := append([]float64(nil), img.Pix...)
		if err := waveletForward2D(coeffs, w, h, 3); err != nil {
			t.Fatalf("%dx%d forward: %v", w, h, err)
		}
		if err := waveletInverse2D(coeffs, w, h, 3, false, new(liftScratch)); err != nil {
			t.Fatalf("%dx%d inverse: %v", w, h, err)
		}
		for i := range coeffs {
			if math.Abs(coeffs[i]-img.Pix[i]) > 1e-9 {
				t.Fatalf("%dx%d: pixel %d drifted by %v", w, h, i, coeffs[i]-img.Pix[i])
			}
		}
	}
}

func TestWaveletDepthValidation(t *testing.T) {
	pix := make([]float64, 8*8)
	if err := waveletForward2D(pix, 8, 8, 0); err == nil {
		t.Error("zero levels accepted")
	}
	if err := waveletForward2D(pix, 8, 8, 10); err == nil {
		t.Error("overdeep transform accepted")
	}
	if err := waveletInverse2D(pix, 8, 8, 10, false, new(liftScratch)); err == nil {
		t.Error("overdeep inverse accepted")
	}
	if err := waveletInverse2D(pix, 8, 8, 0x7FFFFFF0, false, new(liftScratch)); err == nil {
		t.Error("absurd depth accepted")
	}
}

func TestWaveletCompactsEnergy(t *testing.T) {
	img, _ := image.Phantom(128, 128, 2)
	coeffs := append([]float64(nil), img.Pix...)
	if err := waveletForward2D(coeffs, 128, 128, 4); err != nil {
		t.Fatal(err)
	}
	// The 8x8 LL corner must hold most of the signal's weight per
	// coefficient: compare mean absolute value inside vs outside.
	var inSum, outSum float64
	var inN, outN int
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			v := math.Abs(coeffs[y*128+x])
			if x < 8 && y < 8 {
				inSum += v
				inN++
			} else {
				outSum += v
				outN++
			}
		}
	}
	if inSum/float64(inN) < 10*(outSum/float64(outN)) {
		t.Errorf("energy not compacted: LL mean %v vs rest %v", inSum/float64(inN), outSum/float64(outN))
	}
}

func TestEntropyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		step := 0.001 + rng.Float64()
		want := make([]float64, n) // whole multiples of step
		noisy := make([]float64, n)
		for i := range want {
			switch rng.Intn(4) {
			case 0:
				want[i] = float64(rng.Intn(201)-100) * step
			default: // mostly zeros, like real quantized transforms
			}
			noisy[i] = want[i] + (rng.Float64()-0.5)*0.9*step // rounds back to want
		}
		back := make([]float64, n)
		rd := entropyReader{data: entropyEncode(noisy, step), step: step, total: n}
		if err := rd.all(back); err != nil {
			return false
		}
		for i := range want {
			if want[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyDecodeRejectsCorrupt(t *testing.T) {
	data := entropyEncode([]float64{1, 0, 0, 5}, 1)
	decode := func(data []byte, n int) error {
		rd := entropyReader{data: data, step: 1, total: n}
		return rd.all(make([]float64, n))
	}
	if err := decode(data, 4); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
	for name, c := range map[string]struct {
		data []byte
		n    int
	}{
		"truncated payload":  {data[:1], 4},
		"truncated zero run": {data[:2], 4},
		"wrong count":        {data, 3},
		"trailing bytes":     {append(data[:len(data):len(data)], 0x05), 4},
		"zero run of 0":      {[]byte{0, 0, 2, 2, 2, 2}, 4},
		"run past the plane": {[]byte{2, 0, 4}, 4},
		"overlong varint":    {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 4},
	} {
		if err := decode(c.data, c.n); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEncodeDecodeFidelityLadder(t *testing.T) {
	img, _ := image.Phantom(128, 128, 3)
	st, err := Encode(img, Options{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(st.Layers) != 4 {
		t.Fatalf("layers = %d, want 1 base + 3 residuals", len(st.Layers))
	}
	var prevPSNR float64
	for k := 1; k <= len(st.Layers); k++ {
		dec, err := st.Decode(k)
		if err != nil {
			t.Fatalf("Decode(%d): %v", k, err)
		}
		p, err := image.PSNR(img, dec)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("layers=%d bytes=%d psnr=%.2f dB", k, st.PrefixBytes(k), p)
		if k > 1 && p <= prevPSNR {
			t.Errorf("PSNR not increasing at layer %d: %.2f after %.2f", k, p, prevPSNR)
		}
		prevPSNR = p
	}
	// Full reconstruction must be visually excellent.
	if prevPSNR < 40 {
		t.Errorf("full-fidelity PSNR %.2f dB, want ≥ 40", prevPSNR)
	}
	// The base layer must be much smaller than the total.
	if st.LayerBytes(0)*2 > st.PrefixBytes(0) {
		t.Errorf("base layer %d of %d bytes — no progressiveness", st.LayerBytes(0), st.PrefixBytes(0))
	}
	// The progressive point of the scheme: the base layer must cost well
	// under half the raw 8-bit image. (The full-fidelity total exceeds raw
	// here — the entropy coder is a simple varint/RLE stage, not an
	// arithmetic coder; EXPERIMENTS.md discusses this.)
	if st.PrefixBytes(1) >= 128*128/2 {
		t.Errorf("base layer %d bytes not ≪ raw %d", st.PrefixBytes(1), 128*128)
	}
}

func TestDecodeZeroAndOverflowK(t *testing.T) {
	img, _ := image.Phantom(64, 64, 4)
	st, _ := Encode(img, Options{})
	all, err := st.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	over, err := st.Decode(99)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := image.PSNR(all, over)
	if !math.IsInf(p, 1) {
		t.Error("Decode(0) and Decode(99) differ")
	}
}

func TestEncodeOptionValidation(t *testing.T) {
	img, _ := image.Phantom(32, 32, 1)
	if _, err := Encode(img, Options{BaseStep: -1}); err == nil {
		t.Error("negative base step accepted")
	}
	if _, err := Encode(img, Options{ResidualSteps: []float64{0.1, -0.1}}); err == nil {
		t.Error("negative residual step accepted")
	}
	if _, err := Encode(img, Options{Levels: 20}); err == nil {
		t.Error("overdeep levels accepted")
	}
	for _, block := range []int{1, -16, maxBlock + 1} {
		if _, err := Encode(img, Options{Block: block}); err == nil {
			t.Errorf("block size %d accepted", block)
		}
	}
	if _, err := Encode(img, Options{Block: maxBlock}); err != nil {
		t.Errorf("block size %d refused: %v", maxBlock, err)
	}
}

func TestMarshalUnmarshalFull(t *testing.T) {
	img, _ := image.Phantom(96, 80, 5)
	st, _ := Encode(img, Options{})
	header, body, err := st.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(header, body)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back.Layers) != len(st.Layers) {
		t.Fatalf("layer count drift: %d", len(back.Layers))
	}
	d1, _ := st.Decode(0)
	d2, err := back.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := image.PSNR(d1, d2)
	if !math.IsInf(p, 1) {
		t.Error("round-tripped stream decodes differently")
	}
}

func TestUnmarshalPartialBody(t *testing.T) {
	img, _ := image.Phantom(64, 64, 6)
	st, _ := Encode(img, Options{})
	header, body, _ := st.Marshal()
	// Ship only the first two layers' bytes — a bandwidth-limited client.
	partial := body[:st.PrefixBytes(2)]
	back, err := Unmarshal(header, partial)
	if err != nil {
		t.Fatalf("Unmarshal(partial): %v", err)
	}
	if len(back.Layers) != 2 {
		t.Fatalf("partial layers = %d, want 2", len(back.Layers))
	}
	dec, err := back.Decode(0)
	if err != nil {
		t.Fatalf("Decode partial: %v", err)
	}
	want, _ := st.Decode(2)
	p, _ := image.PSNR(want, dec)
	if !math.IsInf(p, 1) {
		t.Error("partial decode differs from prefix decode")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("bogus"), nil); err == nil {
		t.Error("garbage header accepted")
	}
	img, _ := image.Phantom(32, 32, 7)
	st, _ := Encode(img, Options{})
	header, body, _ := st.Marshal()
	if _, err := Unmarshal(header[:8], body); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Unmarshal(header, body[:3]); err == nil {
		t.Error("body with no complete layer accepted")
	}
}

// PrefixLen reads only the layer directory; it must agree with the
// full parse on every prefix and reject what the full parse rejects,
// with the same errors.
func TestPrefixLenMatchesUnmarshal(t *testing.T) {
	img, _ := image.Phantom(96, 80, 5)
	st, _ := Encode(img, Options{})
	header, body, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Unmarshal(header, body)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(full.Layers); k++ {
		n, err := PrefixLen(header, k)
		if err != nil || n != full.PrefixBytes(k) {
			t.Errorf("PrefixLen(%d) = %d, %v; Unmarshal gives %d", k, n, err, full.PrefixBytes(k))
		}
	}
	if n, err := PrefixLen(header, len(full.Layers)); n != len(body) {
		t.Errorf("all-layer prefix = %d, %v; body is %d bytes", n, err, len(body))
	}
	// Zero and a k beyond the directory mean every layer, as they do to
	// PrefixBytes and Decode.
	for _, k := range []int{0, -1, len(full.Layers) + 1, 99} {
		if n, err := PrefixLen(header, k); err != nil || n != full.PrefixBytes(k) || n != len(body) {
			t.Errorf("PrefixLen(%d) = %d, %v; PrefixBytes gives %d of a %d-byte body", k, n, err, full.PrefixBytes(k), len(body))
		}
	}
	implausible := append([]byte(nil), header...)
	binary.LittleEndian.PutUint32(implausible[20:], 65) // layer count
	zeroWidth := append([]byte(nil), header...)
	binary.LittleEndian.PutUint32(zeroWidth[4:], 0)
	for name, h := range map[string][]byte{
		"empty":               nil,
		"bad magic":           []byte("bogus header bytes, long enough"),
		"magic only":          header[:4],
		"truncated fixed":     header[:20],
		"no directory":        header[:24],
		"truncated directory": header[:len(header)-1],
		"implausible count":   implausible,
		"zero width":          zeroWidth,
	} {
		_, wantErr := Unmarshal(h, body)
		_, gotErr := PrefixLen(h, 1)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: PrefixLen err = %v, Unmarshal err = %v", name, gotErr, wantErr)
		}
	}
}

// TestHybridBeatsWaveletOnlyResiduals is the E6 ablation: coding residuals
// in a different basis (DCT) must beat re-coding them with the same
// wavelet at equal quantization steps, in bytes at comparable PSNR.
func TestHybridBeatsWaveletOnlyAtBase(t *testing.T) {
	img, _ := image.Phantom(128, 128, 8)
	// Hybrid: default pipeline.
	hybrid, err := Encode(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wavelet-only comparator: single fine wavelet layer at the finest
	// residual step.
	fine, err := Encode(img, Options{BaseStep: 0.005, ResidualSteps: []float64{}})
	if err != nil {
		t.Fatal(err)
	}
	hFull, _ := hybrid.Decode(0)
	fFull, _ := fine.Decode(0)
	hp, _ := image.PSNR(img, hFull)
	fp, _ := image.PSNR(img, fFull)
	t.Logf("hybrid: %d bytes at %.1f dB; fine wavelet-only: %d bytes at %.1f dB",
		hybrid.PrefixBytes(0), hp, fine.PrefixBytes(0), fp)
	// The hybrid's progressive-startup advantage: its base layer alone is
	// smaller than the single-shot fine wavelet stream, so a viewer sees a
	// usable image sooner. (At full fidelity the single wavelet basis wins
	// rate-distortion — the honest ablation outcome EXPERIMENTS.md reports.)
	if hybrid.LayerBytes(0) >= fine.PrefixBytes(0) {
		t.Errorf("hybrid base %d not below fine wavelet %d", hybrid.LayerBytes(0), fine.PrefixBytes(0))
	}
}

func TestPacketTransformRoundTrip(t *testing.T) {
	img, _ := image.Phantom(64, 64, 9)
	coeffs := append([]float64(nil), img.Pix...)
	if err := packetForward2D(coeffs, 64, 64, 2); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if err := packetInverse2D(coeffs, 64, 64, 2, new(liftScratch)); err != nil {
		t.Fatalf("inverse: %v", err)
	}
	for i := range coeffs {
		if math.Abs(coeffs[i]-img.Pix[i]) > 1e-9 {
			t.Fatalf("pixel %d drifted by %v", i, coeffs[i]-img.Pix[i])
		}
	}
	// Dimension validation.
	bad := make([]float64, 30*30)
	if err := packetForward2D(bad, 30, 30, 2); err == nil {
		t.Error("non-divisible size accepted")
	}
	if err := packetInverse2D(bad, 30, 30, 2, new(liftScratch)); err == nil {
		t.Error("non-divisible size accepted by inverse")
	}
	if err := packetForward2D(coeffs, 64, 64, 0); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestPacketBasisEncodeDecode(t *testing.T) {
	img, _ := image.Phantom(128, 128, 10)
	st, err := Encode(img, Options{Basis: PacketBasis})
	if err != nil {
		t.Fatalf("Encode(packet): %v", err)
	}
	var prev float64
	for k := 1; k <= len(st.Layers); k++ {
		dec, err := st.Decode(k)
		if err != nil {
			t.Fatalf("Decode(%d): %v", k, err)
		}
		p, _ := image.PSNR(img, dec)
		if k > 1 && p <= prev {
			t.Errorf("packet ladder not monotone at %d: %.2f after %.2f", k, p, prev)
		}
		prev = p
	}
	if prev < 40 {
		t.Errorf("packet full fidelity %.2f dB", prev)
	}
	// Marshal round trip keeps the packet layers decodable.
	header, body, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(header, body)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := st.Decode(0)
	d2, err := back.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := image.PSNR(d1, d2)
	if !math.IsInf(p, 1) {
		t.Error("packet stream round trip drift")
	}
	// Indivisible dimensions are rejected for the packet basis.
	odd, _ := image.Phantom(66, 66, 1)
	if _, err := Encode(odd, Options{Basis: PacketBasis}); err == nil {
		t.Error("66x66 accepted for packet basis")
	}
}

// TestBasisComparison records which residual basis wins on the phantom —
// part of the E6 story: the paper offers both and [20] picks per image.
func TestBasisComparison(t *testing.T) {
	img, _ := image.Phantom(128, 128, 11)
	dct, err := Encode(img, Options{Basis: CosineBasis})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Encode(img, Options{Basis: PacketBasis})
	if err != nil {
		t.Fatal(err)
	}
	dd, _ := dct.Decode(0)
	pd, _ := pkt.Decode(0)
	dp, _ := image.PSNR(img, dd)
	pp, _ := image.PSNR(img, pd)
	t.Logf("cosine: %d bytes at %.1f dB; packet: %d bytes at %.1f dB",
		dct.PrefixBytes(0), dp, pkt.PrefixBytes(0), pp)
	// Both must deliver high fidelity; relative ordering is image-dependent.
	if dp < 40 || pp < 40 {
		t.Errorf("a basis failed to reach 40 dB: %.1f / %.1f", dp, pp)
	}
}
