package image

import (
	"encoding/json"
	"testing"
)

func TestAnnotationsAddDeleteRender(t *testing.T) {
	base, _ := New(64, 64)
	a := NewAnnotated(base)
	textID, err := a.AddText(5, 5, "tumor?", 1.0)
	if err != nil {
		t.Fatalf("AddText: %v", err)
	}
	lineID := a.AddLine(0, 0, 63, 63, 1.0)
	if textID == lineID {
		t.Error("ids collide")
	}
	if _, err := a.AddText(0, 0, "", 1); err == nil {
		t.Error("empty text accepted")
	}

	out := a.Render()
	// The diagonal line must be burned in.
	if out.At(10, 10) != 1 || out.At(32, 32) != 1 {
		t.Error("line not rendered")
	}
	// Text pixels near the anchor must be set.
	textPixels := 0
	for y := 5; y < 10; y++ {
		for x := 5; x < 30; x++ {
			if out.At(x, y) == 1 {
				textPixels++
			}
		}
	}
	if textPixels < 10 {
		t.Errorf("text rendered only %d pixels", textPixels)
	}
	// The base must stay untouched.
	if base.At(10, 10) != 0 {
		t.Error("render mutated the base raster")
	}

	// Delete the line: the diagonal disappears, the text stays.
	if err := a.Delete(lineID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	out = a.Render()
	if out.At(32, 32) != 0 {
		t.Error("deleted line still rendered")
	}
	if err := a.Delete(lineID); err == nil {
		t.Error("double delete accepted")
	}
	if err := a.Delete(999); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAnnotationsSerialization(t *testing.T) {
	base, _ := New(8, 8)
	a := NewAnnotated(base)
	a.AddText(1, 1, "x2", 0.9)
	a.AddLine(0, 0, 7, 7, 0.8)
	data, err := MarshalAnnotations(a.Annotations)
	if err != nil {
		t.Fatal(err)
	}
	var back []Annotation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Text != "x2" || back[1].Kind != LineElement {
		t.Errorf("round trip drift: %+v", back)
	}
}

func TestLineEndpointsAndClipping(t *testing.T) {
	g, _ := New(10, 10)
	drawLine(g, 2, 3, 7, 3, 1)
	for x := 2; x <= 7; x++ {
		if g.At(x, 3) != 1 {
			t.Errorf("horizontal line missing pixel at %d", x)
		}
	}
	// Lines reaching outside clip silently.
	drawLine(g, -5, -5, 5, 5, 1)
	if g.At(5, 5) != 1 {
		t.Error("clipped line lost its in-range tail")
	}
	// Reverse direction draws the same pixels.
	g2, _ := New(10, 10)
	drawLine(g2, 7, 3, 2, 3, 1)
	for x := 2; x <= 7; x++ {
		if g2.At(x, 3) != 1 {
			t.Errorf("reversed line missing pixel at %d", x)
		}
	}
}

func TestUnknownGlyphRendersBlock(t *testing.T) {
	g, _ := New(10, 10)
	drawText(g, 0, 0, "@", 1)
	count := 0
	for y := 0; y < 5; y++ {
		for x := 0; x < 3; x++ {
			if g.At(x, y) == 1 {
				count++
			}
		}
	}
	if count != 15 {
		t.Errorf("unknown glyph drew %d pixels, want full 3x5 block", count)
	}
}
