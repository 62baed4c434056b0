package image

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// grayHeader builds a GRAY header claiming w×h pixels.
func grayHeader(w, h uint32) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:4], 0x47524159)
	binary.LittleEndian.PutUint32(b[4:8], w)
	binary.LittleEndian.PutUint32(b[8:12], h)
	return b
}

// FuzzImageDecode throws arbitrary bytes at the flat raster decoder:
// client.GetImage decodes what the server sent with it. It must never
// panic; a header whose pixel count is not the body's length is refused;
// and a stream it accepts re-encodes to itself and decodes again to the
// same raster.
func FuzzImageDecode(f *testing.F) {
	g, _ := New(3, 2)
	for i := range g.Pix {
		g.Pix[i] = float64(i) / 5
	}
	f.Add(g.Encode())
	f.Add(append(grayHeader(2, 2), 0, 127, 128, 255))
	f.Add(append(grayHeader(2, 2), 0, 1, 2))    // one byte short
	f.Add(append(grayHeader(1, 1), 9, 9))       // one byte long
	f.Add(append(grayHeader(0, 4), 1, 2, 3, 4)) // zero width
	f.Add(grayHeader(1<<16, 1<<16))             // w*h wraps to 0 in 32 bits
	f.Add(grayHeader(math.MaxUint32, math.MaxUint32))
	f.Add([]byte("GRAY"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			return
		}
		if len(data) < 12 {
			t.Fatalf("accepted a %d-byte stream, shorter than the header", len(data))
		}
		w := uint64(binary.LittleEndian.Uint32(data[4:8]))
		h := uint64(binary.LittleEndian.Uint32(data[8:12]))
		if w*h != uint64(len(data)-12) || uint64(g.W) != w || uint64(g.H) != h || len(g.Pix) != g.W*g.H {
			t.Fatalf("accepted a %dx%d header over %d body bytes as a %dx%d raster of %d pixels",
				w, h, len(data)-12, g.W, g.H, len(g.Pix))
		}
		out := g.Encode()
		if !bytes.Equal(out, data) {
			t.Fatal("an accepted stream does not re-encode to itself")
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded raster does not decode: %v", err)
		}
		if back.W != g.W || back.H != g.H {
			t.Fatalf("round trip changed %dx%d to %dx%d", g.W, g.H, back.W, back.H)
		}
		for i, v := range g.Pix {
			if math.Float64bits(back.Pix[i]) != math.Float64bits(v) {
				t.Fatalf("pixel %d: %v after the round trip, %v before", i, back.Pix[i], v)
			}
		}
	})
}
