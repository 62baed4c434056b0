package image

import "fmt"

// Segmentation is a labeling of a raster into connected regions — the
// "segmentation grid" of the paper's IP module, whose segments partners
// can fill with different intensities or patterns.
type Segmentation struct {
	W, H int
	// Labels assigns every pixel a segment id in [0, NumSegments).
	Labels []int
	// NumSegments is the number of connected regions found.
	NumSegments int
	// Sizes[i] is the pixel count of segment i.
	Sizes []int
}

// Segment thresholds the raster into foreground (≥ threshold) and
// background, then labels 4-connected components of both classes. The
// result is a complete partition of the image into regions.
func Segment(g *Gray, threshold float64) *Segmentation {
	s := &Segmentation{W: g.W, H: g.H, Labels: make([]int, g.W*g.H)}
	for i := range s.Labels {
		s.Labels[i] = -1
	}
	var stack []int
	for start := range g.Pix {
		if s.Labels[start] != -1 {
			continue
		}
		id := s.NumSegments
		s.NumSegments++
		fg := g.Pix[start] >= threshold
		size := 0
		stack = append(stack[:0], start)
		s.Labels[start] = id
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			x, y := p%g.W, p/g.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= g.W || ny >= g.H {
					continue
				}
				np := ny*g.W + nx
				if s.Labels[np] != -1 {
					continue
				}
				if (g.Pix[np] >= threshold) != fg {
					continue
				}
				s.Labels[np] = id
				stack = append(stack, np)
			}
		}
		s.Sizes = append(s.Sizes, size)
	}
	return s
}

// Pattern is a fill style for FillSegment.
type Pattern int

// Fill patterns.
const (
	Solid Pattern = iota
	Stripes
	Dots
)

// FillSegment paints the pixels of one segment with the given pattern and
// intensity on a copy of the raster — "fill different segments of the
// segmentation with different colors or patterns".
func FillSegment(g *Gray, s *Segmentation, segment int, p Pattern, intensity float64) (*Gray, error) {
	if g.W != s.W || g.H != s.H {
		return nil, fmt.Errorf("image: segmentation size %dx%d != raster %dx%d", s.W, s.H, g.W, g.H)
	}
	if segment < 0 || segment >= s.NumSegments {
		return nil, fmt.Errorf("image: no segment %d (have %d)", segment, s.NumSegments)
	}
	out := g.Clone()
	for i, lab := range s.Labels {
		if lab != segment {
			continue
		}
		x, y := i%g.W, i/g.W
		switch p {
		case Solid:
			out.Pix[i] = clamp01(intensity)
		case Stripes:
			if y%4 < 2 {
				out.Pix[i] = clamp01(intensity)
			}
		case Dots:
			if x%3 == 0 && y%3 == 0 {
				out.Pix[i] = clamp01(intensity)
			}
		default:
			return nil, fmt.Errorf("image: unknown pattern %d", p)
		}
	}
	return out, nil
}

// GridOverlay draws the segmentation boundaries onto a copy of the raster
// — the visible "segmentation grid".
func GridOverlay(g *Gray, s *Segmentation, intensity float64) (*Gray, error) {
	if g.W != s.W || g.H != s.H {
		return nil, fmt.Errorf("image: segmentation size %dx%d != raster %dx%d", s.W, s.H, g.W, g.H)
	}
	out := g.Clone()
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			lab := s.Labels[y*g.W+x]
			boundary := (x+1 < g.W && s.Labels[y*g.W+x+1] != lab) ||
				(y+1 < g.H && s.Labels[(y+1)*g.W+x] != lab)
			if boundary {
				out.Pix[y*g.W+x] = clamp01(intensity)
			}
		}
	}
	return out, nil
}
