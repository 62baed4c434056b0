// Package image implements the image-processing module of §3.1 of the
// paper and the synthetic CT material it operates on. The operations are
// the ones the paper lists as visible to all partners of an interaction:
// zooming a selected part of an image, adding and deleting text and line
// elements, and adding a segmentation grid whose segments can be filled
// with different colors or patterns. (Freezing an object against edits by
// other partners is an interaction-server concern; see package room.)
//
// Rasters are grayscale with float64 samples in [0, 1] — medical imagery
// is monochrome, and a scalar sample keeps the wavelet codec in package
// compress exact.
package image

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Gray is a grayscale raster. Pixels are stored row-major.
type Gray struct {
	W, H int
	Pix  []float64
}

// New returns a zeroed raster of the given dimensions.
func New(w, h int) (*Gray, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("image: invalid dimensions %dx%d", w, h)
	}
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}, nil
}

// Set writes the pixel at (x, y), clamping the value to [0, 1];
// out-of-range coordinates are ignored.
func (g *Gray) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	return &Gray{W: g.W, H: g.H, Pix: append([]float64(nil), g.Pix...)}
}

// Encode serializes the raster with 8-bit quantization: a 12-byte header
// (magic, width, height) followed by one byte per pixel. This is the flat
// "JPGImage" form stored in IMAGE_OBJECTS_TABLE; the multi-layer codec in
// package compress is the high-fidelity path.
func (g *Gray) Encode() []byte {
	buf := make([]byte, 12+g.W*g.H)
	binary.LittleEndian.PutUint32(buf[0:4], 0x47524159) // "GRAY"
	binary.LittleEndian.PutUint32(buf[4:8], uint32(g.W))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(g.H))
	for i, v := range g.Pix {
		buf[12+i] = byte(math.Round(clamp01(v) * 255))
	}
	return buf
}

// Decode parses a raster produced by Encode.
func Decode(data []byte) (*Gray, error) {
	if len(data) < 12 || binary.LittleEndian.Uint32(data[0:4]) != 0x47524159 {
		return nil, fmt.Errorf("image: not a GRAY stream")
	}
	// The pixel count is taken in 64 bits: in a 32-bit int, 65536×65536
	// wraps to 0 and would pass for an empty body.
	w := binary.LittleEndian.Uint32(data[4:8])
	h := binary.LittleEndian.Uint32(data[8:12])
	if w == 0 || h == 0 || uint64(w)*uint64(h) != uint64(len(data)-12) {
		return nil, fmt.Errorf("image: corrupt GRAY stream (%dx%d, %d bytes)", w, h, len(data))
	}
	g, _ := New(int(w), int(h))
	pix := g.Pix[:len(data)-12] // same length as the payload: no bounds check per pixel
	for i, b := range data[12:] {
		pix[i] = unit[b]
	}
	return g, nil
}

// unit maps a stored byte to its intensity in [0,1]. Decode looks the
// value up instead of dividing once per pixel; the entries are that
// division's results, so decoded rasters are bit-identical.
var unit = func() (t [256]float64) {
	for b := range t {
		t[b] = float64(b) / 255
	}
	return t
}()

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// MSE returns the mean squared error between two same-sized rasters.
func MSE(a, b *Gray) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("image: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		sum += d * d
	}
	return sum / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two rasters
// (peak = 1.0). Identical images return +Inf.
func PSNR(a, b *Gray) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(1/mse), nil
}

// ellipse is one component of a phantom.
type ellipse struct {
	cx, cy, rx, ry, angle, intensity float64
}

// Phantom generates a Shepp-Logan-style synthetic CT slice: a large head
// ellipse containing randomly placed organ and lesion ellipses. The same
// seed always yields the same phantom, so experiments are reproducible.
func Phantom(w, h int, seed int64) (*Gray, error) {
	g, err := New(w, h)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shapes := []ellipse{
		{0.5, 0.5, 0.42, 0.46, 0, 0.9},  // skull
		{0.5, 0.5, 0.38, 0.42, 0, -0.3}, // brain interior (darker)
	}
	// Organs.
	for i := 0; i < 4; i++ {
		shapes = append(shapes, ellipse{
			cx:        0.3 + 0.4*rng.Float64(),
			cy:        0.3 + 0.4*rng.Float64(),
			rx:        0.05 + 0.10*rng.Float64(),
			ry:        0.05 + 0.10*rng.Float64(),
			angle:     rng.Float64() * math.Pi,
			intensity: 0.15 + 0.25*rng.Float64(),
		})
	}
	// Small bright lesions.
	for i := 0; i < 3; i++ {
		shapes = append(shapes, ellipse{
			cx:        0.35 + 0.3*rng.Float64(),
			cy:        0.35 + 0.3*rng.Float64(),
			rx:        0.015 + 0.02*rng.Float64(),
			ry:        0.015 + 0.02*rng.Float64(),
			angle:     0,
			intensity: 0.35,
		})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w)
			fy := float64(y) / float64(h)
			var v float64
			for _, e := range shapes {
				dx := fx - e.cx
				dy := fy - e.cy
				cos, sin := math.Cos(e.angle), math.Sin(e.angle)
				u := dx*cos + dy*sin
				t := -dx*sin + dy*cos
				if (u*u)/(e.rx*e.rx)+(t*t)/(e.ry*e.ry) <= 1 {
					v += e.intensity
				}
			}
			// Mild deterministic texture so compression has work to do.
			v += 0.02 * math.Sin(40*fx) * math.Cos(34*fy)
			g.Pix[y*w+x] = clamp01(v)
		}
	}
	return g, nil
}

// Rect is an axis-aligned pixel rectangle, [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// valid reports whether the rect is non-empty and inside the raster.
func (r Rect) valid(g *Gray) bool {
	return r.X0 >= 0 && r.Y0 >= 0 && r.X1 <= g.W && r.Y1 <= g.H && r.X0 < r.X1 && r.Y0 < r.Y1
}

// Zoom crops the rectangle and rescales it to the original raster size
// with bilinear interpolation — the "zooming of a selected part of image"
// operation.
func Zoom(g *Gray, r Rect) (*Gray, error) {
	if !r.valid(g) {
		return nil, fmt.Errorf("image: zoom rect %+v out of %dx%d", r, g.W, g.H)
	}
	return Resize(crop(g, r), g.W, g.H)
}

// crop copies a subrectangle.
func crop(g *Gray, r Rect) *Gray {
	out, _ := New(r.X1-r.X0, r.Y1-r.Y0)
	for y := r.Y0; y < r.Y1; y++ {
		copy(out.Pix[(y-r.Y0)*out.W:(y-r.Y0+1)*out.W], g.Pix[y*g.W+r.X0:y*g.W+r.X1])
	}
	return out
}

// Resize rescales the raster to w x h with bilinear interpolation.
func Resize(g *Gray, w, h int) (*Gray, error) {
	out, err := New(w, h)
	if err != nil {
		return nil, err
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := (float64(x) + 0.5) * float64(g.W) / float64(w)
			sy := (float64(y) + 0.5) * float64(g.H) / float64(h)
			x0 := int(sx - 0.5)
			y0 := int(sy - 0.5)
			fx := sx - 0.5 - float64(x0)
			fy := sy - 0.5 - float64(y0)
			v := g.atClamped(x0, y0)*(1-fx)*(1-fy) +
				g.atClamped(x0+1, y0)*fx*(1-fy) +
				g.atClamped(x0, y0+1)*(1-fx)*fy +
				g.atClamped(x0+1, y0+1)*fx*fy
			out.Pix[y*w+x] = v
		}
	}
	return out, nil
}

// atClamped reads with edge clamping (for interpolation).
func (g *Gray) atClamped(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}
