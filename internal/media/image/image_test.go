package image

import (
	"bytes"
	"math"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("negative height accepted")
	}
	g, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 2, 0.5)
	if g.At(1, 2) != 0.5 {
		t.Error("Set/At round trip")
	}
	// Clamping.
	g.Set(0, 0, 2.0)
	if g.At(0, 0) != 1 {
		t.Errorf("over-range value not clamped: %v", g.At(0, 0))
	}
	g.Set(0, 1, -1)
	if g.At(0, 1) != 0 {
		t.Error("under-range value not clamped")
	}
	// Out of range is silent / zero.
	g.Set(99, 99, 1)
	if g.At(99, 99) != 0 || g.At(-1, 0) != 0 {
		t.Error("out-of-range access not zero")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := New(2, 2)
	g.Set(0, 0, 0.7)
	c := g.Clone()
	c.Set(0, 0, 0.1)
	if g.At(0, 0) != 0.7 {
		t.Error("clone aliases original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, _ := Phantom(64, 48, 1)
	data := g.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.W != 64 || back.H != 48 {
		t.Fatalf("size drift: %dx%d", back.W, back.H)
	}
	// 8-bit quantization: error per pixel ≤ 1/255.
	for i := range g.Pix {
		if math.Abs(g.Pix[i]-back.Pix[i]) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d drifted: %v vs %v", i, g.Pix[i], back.Pix[i])
		}
	}
	if _, err := Decode(data[:5]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Decode(append([]byte("XXXX"), data[4:]...)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Error("short pixel payload accepted")
	}
}

// TestDecodeTableIsTheDivision pins Decode's lookup table to the
// expression it replaced, entry by entry, and checks that a payload
// holding every byte value survives Decode then Encode byte for byte.
func TestDecodeTableIsTheDivision(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := unit[b], float64(b)/255; got != want {
			t.Errorf("unit[%d] = %v, want %v", b, got, want)
		}
	}
	g, _ := New(32, 16)
	p := g.Encode()
	for i := range p[12:] {
		p[12+i] = byte(i) // 512 pixels: every value twice
	}
	back, err := Decode(p)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i, v := range back.Pix {
		if want := float64(p[12+i]) / 255; v != want {
			t.Fatalf("pixel %d = %v, want %v", i, v, want)
		}
	}
	if !bytes.Equal(back.Encode(), p) {
		t.Error("Decode then Encode changed the payload")
	}
}

func TestPhantomDeterministicAndStructured(t *testing.T) {
	a, err := Phantom(128, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Phantom(128, 128, 7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("phantom not deterministic")
		}
	}
	c, _ := Phantom(128, 128, 8)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical phantoms")
	}
	// The skull ring must be brighter than the far corners.
	if a.At(64, 6) <= a.At(2, 2) {
		t.Error("phantom lacks the head ellipse")
	}
	if _, err := Phantom(0, 10, 1); err == nil {
		t.Error("invalid size accepted")
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a, _ := Phantom(32, 32, 1)
	ident, err := PSNR(a, a)
	if err != nil || !math.IsInf(ident, 1) {
		t.Errorf("PSNR(a,a) = %v, %v", ident, err)
	}
	b := a.Clone()
	for i := range b.Pix {
		b.Pix[i] = clamp01(b.Pix[i] + 0.1)
	}
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 15 || p > 30 { // 0.1 uniform error → MSE ≈ 0.01 → ≈ 20 dB
		t.Errorf("PSNR = %v, want ≈ 20", p)
	}
	small, _ := New(4, 4)
	if _, err := MSE(a, small); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestZoom(t *testing.T) {
	g, _ := Phantom(100, 100, 3)
	z, err := Zoom(g, Rect{X0: 25, Y0: 25, X1: 75, Y1: 75})
	if err != nil {
		t.Fatalf("Zoom: %v", err)
	}
	if z.W != g.W || z.H != g.H {
		t.Errorf("zoom output %dx%d, want original size", z.W, z.H)
	}
	// The zoomed center must match the original center value closely.
	if math.Abs(z.At(50, 50)-g.At(50, 50)) > 0.1 {
		t.Errorf("center drift: %v vs %v", z.At(50, 50), g.At(50, 50))
	}
	for _, bad := range []Rect{
		{X0: -1, Y0: 0, X1: 10, Y1: 10},
		{X0: 0, Y0: 0, X1: 101, Y1: 10},
		{X0: 10, Y0: 10, X1: 10, Y1: 20},
		{X0: 20, Y0: 10, X1: 10, Y1: 20},
	} {
		if _, err := Zoom(g, bad); err == nil {
			t.Errorf("bad rect %+v accepted", bad)
		}
	}
}

func TestResizeAndDownscale(t *testing.T) {
	g, _ := Phantom(64, 64, 4)
	up, err := Resize(g, 128, 128)
	if err != nil || up.W != 128 {
		t.Fatalf("Resize: %v", err)
	}
	down, err := Resize(g, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if down.W != 16 || down.H != 16 {
		t.Errorf("downscale size %dx%d", down.W, down.H)
	}
	// Interpolation keeps the mean intensity close.
	mean := func(x *Gray) float64 {
		var s float64
		for _, v := range x.Pix {
			s += v
		}
		return s / float64(len(x.Pix))
	}
	if math.Abs(mean(g)-mean(down)) > 0.02 {
		t.Errorf("mean drift: %v vs %v", mean(g), mean(down))
	}
	if _, err := Resize(g, 0, 10); err == nil {
		t.Error("zero-size resize accepted")
	}
}
