package image

import "fmt"

// At returns the pixel at (x, y); out-of-range coordinates read as 0.
func (g *Gray) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// SegmentAt returns the segment id containing pixel (x, y).
func (s *Segmentation) SegmentAt(x, y int) (int, error) {
	if x < 0 || y < 0 || x >= s.W || y >= s.H {
		return 0, fmt.Errorf("image: (%d,%d) outside %dx%d", x, y, s.W, s.H)
	}
	return s.Labels[y*s.W+x], nil
}
