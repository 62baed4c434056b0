package image

import (
	"encoding/json"
	"fmt"
	"sort"
)

// AnnotationKind distinguishes the two overlay element types the paper's
// IP module manages: text elements and line elements.
type AnnotationKind int

// Annotation kinds.
const (
	TextElement AnnotationKind = iota
	LineElement
)

// Annotation is one vector overlay element. Annotations live beside the
// raster (never burned into the stored pixels), which is what makes the
// paper's "deleting of text elements and line elements" possible, and
// what lets the interaction server propagate an annotation as a small
// diff instead of re-sending the image.
type Annotation struct {
	ID   int
	Kind AnnotationKind
	// X1,Y1 anchor the element; X2,Y2 is the line end (LineElement only).
	X1, Y1, X2, Y2 int
	// Text is the label content (TextElement only).
	Text string
	// Intensity is the drawing gray level in [0,1].
	Intensity float64
}

// Annotated couples a raster with its overlay elements.
type Annotated struct {
	Base        *Gray
	Annotations []Annotation
	nextID      int
}

// NewAnnotated wraps a raster for annotation.
func NewAnnotated(base *Gray) *Annotated {
	return &Annotated{Base: base, nextID: 1}
}

// AddText adds a text element anchored at (x, y) and returns its id.
func (a *Annotated) AddText(x, y int, text string, intensity float64) (int, error) {
	if text == "" {
		return 0, fmt.Errorf("image: empty text element")
	}
	id := a.nextID
	a.nextID++
	a.Annotations = append(a.Annotations, Annotation{
		ID: id, Kind: TextElement, X1: x, Y1: y, Text: text, Intensity: intensity,
	})
	return id, nil
}

// AddLine adds a line element from (x1, y1) to (x2, y2) and returns its id.
func (a *Annotated) AddLine(x1, y1, x2, y2 int, intensity float64) int {
	id := a.nextID
	a.nextID++
	a.Annotations = append(a.Annotations, Annotation{
		ID: id, Kind: LineElement, X1: x1, Y1: y1, X2: x2, Y2: y2, Intensity: intensity,
	})
	return id
}

// Delete removes the element with the given id.
func (a *Annotated) Delete(id int) error {
	for i, an := range a.Annotations {
		if an.ID == id {
			a.Annotations = append(a.Annotations[:i], a.Annotations[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("image: no annotation %d", id)
}

// Render burns the overlay into a copy of the base raster. Text is drawn
// with the built-in 3x5 glyph font; unknown characters render as filled
// blocks.
func (a *Annotated) Render() *Gray {
	out := a.Base.Clone()
	anns := append([]Annotation(nil), a.Annotations...)
	sort.Slice(anns, func(i, j int) bool { return anns[i].ID < anns[j].ID })
	for _, an := range anns {
		switch an.Kind {
		case LineElement:
			drawLine(out, an.X1, an.Y1, an.X2, an.Y2, an.Intensity)
		case TextElement:
			drawText(out, an.X1, an.Y1, an.Text, an.Intensity)
		}
	}
	return out
}

// MarshalAnnotations serializes the overlay (for propagation and storage
// in the image object's FLD_TEXTS column).
func MarshalAnnotations(anns []Annotation) ([]byte, error) {
	return json.Marshal(anns)
}

// drawLine rasterizes a line with Bresenham's algorithm.
func drawLine(g *Gray, x1, y1, x2, y2 int, v float64) {
	dx := abs(x2 - x1)
	dy := -abs(y2 - y1)
	sx := 1
	if x1 > x2 {
		sx = -1
	}
	sy := 1
	if y1 > y2 {
		sy = -1
	}
	err := dx + dy
	for {
		g.Set(x1, y1, v)
		if x1 == x2 && y1 == y2 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x1 += sx
		}
		if e2 <= dx {
			err += dx
			y1 += sy
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// glyphs is a minimal 3x5 bitmap font covering lowercase letters, digits,
// and a few punctuation marks. Each glyph is 5 rows of 3 bits (MSB left).
var glyphs = map[rune][5]uint8{
	'a': {0b010, 0b101, 0b111, 0b101, 0b101},
	'b': {0b110, 0b101, 0b110, 0b101, 0b110},
	'c': {0b011, 0b100, 0b100, 0b100, 0b011},
	'd': {0b110, 0b101, 0b101, 0b101, 0b110},
	'e': {0b111, 0b100, 0b110, 0b100, 0b111},
	'f': {0b111, 0b100, 0b110, 0b100, 0b100},
	'g': {0b011, 0b100, 0b101, 0b101, 0b011},
	'h': {0b101, 0b101, 0b111, 0b101, 0b101},
	'i': {0b111, 0b010, 0b010, 0b010, 0b111},
	'j': {0b001, 0b001, 0b001, 0b101, 0b010},
	'k': {0b101, 0b110, 0b100, 0b110, 0b101},
	'l': {0b100, 0b100, 0b100, 0b100, 0b111},
	'm': {0b101, 0b111, 0b111, 0b101, 0b101},
	'n': {0b101, 0b111, 0b111, 0b111, 0b101},
	'o': {0b010, 0b101, 0b101, 0b101, 0b010},
	'p': {0b110, 0b101, 0b110, 0b100, 0b100},
	'q': {0b010, 0b101, 0b101, 0b110, 0b011},
	'r': {0b110, 0b101, 0b110, 0b101, 0b101},
	's': {0b011, 0b100, 0b010, 0b001, 0b110},
	't': {0b111, 0b010, 0b010, 0b010, 0b010},
	'u': {0b101, 0b101, 0b101, 0b101, 0b111},
	'v': {0b101, 0b101, 0b101, 0b101, 0b010},
	'w': {0b101, 0b101, 0b111, 0b111, 0b101},
	'x': {0b101, 0b101, 0b010, 0b101, 0b101},
	'y': {0b101, 0b101, 0b010, 0b010, 0b010},
	'z': {0b111, 0b001, 0b010, 0b100, 0b111},
	'0': {0b111, 0b101, 0b101, 0b101, 0b111},
	'1': {0b010, 0b110, 0b010, 0b010, 0b111},
	'2': {0b110, 0b001, 0b010, 0b100, 0b111},
	'3': {0b110, 0b001, 0b010, 0b001, 0b110},
	'4': {0b101, 0b101, 0b111, 0b001, 0b001},
	'5': {0b111, 0b100, 0b110, 0b001, 0b110},
	'6': {0b011, 0b100, 0b110, 0b101, 0b010},
	'7': {0b111, 0b001, 0b010, 0b010, 0b010},
	'8': {0b010, 0b101, 0b010, 0b101, 0b010},
	'9': {0b010, 0b101, 0b011, 0b001, 0b110},
	' ': {0, 0, 0, 0, 0},
	'.': {0, 0, 0, 0, 0b010},
	'-': {0, 0, 0b111, 0, 0},
	'?': {0b110, 0b001, 0b010, 0b000, 0b010},
}

// drawText renders text starting at (x, y), advancing 4 pixels per glyph.
func drawText(g *Gray, x, y int, text string, v float64) {
	cx := x
	for _, r := range text {
		glyph, ok := glyphs[r]
		if !ok {
			glyph = [5]uint8{0b111, 0b111, 0b111, 0b111, 0b111}
		}
		for row := 0; row < 5; row++ {
			for col := 0; col < 3; col++ {
				if glyph[row]&(1<<(2-col)) != 0 {
					g.Set(cx+col, y+row, v)
				}
			}
		}
		cx += 4
	}
}
