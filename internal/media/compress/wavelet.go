// Package compress implements the image-compression-transfer module of
// §3.3 of the paper: the hybrid multi-layered representation of [20]
// (Meyer, Averbuch, Coifman). An image is encoded as the superposition of
// one main approximation and a sequence of residuals, each coded in a
// different basis: a wavelet transform (CDF 5/3 lifting) codes the main
// approximation, and a blocked local-cosine (DCT-II) transform codes each
// compression residual, compensating for the artifacts the previous
// layers' quantization introduced. Decoding any prefix of the layer
// sequence yields the image at increasing fidelity, which is what lets
// the conferencing system show the same image at different resolutions to
// different partners in a room (Fig. 9).
package compress

import "fmt"

// fwd53 performs one level of the CDF 5/3 lifting transform on a signal,
// writing approximation coefficients to the first half (rounded up) and
// detail coefficients to the second half of dst. n ≥ 2.
func fwd53(src, dst []float64, n int) {
	half := (n + 1) / 2
	// Predict: d[i] = odd[i] - (even[i] + even[i+1])/2, mirrored at edges.
	for i := 0; i < n/2; i++ {
		left := src[2*i]
		right := left
		if 2*i+2 < n {
			right = src[2*i+2]
		}
		dst[half+i] = src[2*i+1] - 0.5*(left+right)
	}
	// Update: s[i] = even[i] + (d[i-1] + d[i])/4, mirrored at edges.
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

// inv53 inverts fwd53.
func inv53(src, dst []float64, n int) {
	half := (n + 1) / 2
	// Un-update: even[i] = s[i] - (d[i-1] + d[i])/4.
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
	// Un-predict: odd[i] = d[i] + (even[i] + even[i+1])/2.
	for i := 0; i < n/2; i++ {
		left := dst[2*i]
		right := left
		if 2*i+2 < n {
			right = dst[2*i+2]
		}
		dst[2*i+1] = src[half+i] + 0.5*(left+right)
	}
}

// rowOf returns the w values of row y of a plane whose rows are stride
// apart.
func rowOf(p []float64, stride, y, w int) []float64 { return p[y*stride : y*stride+w] }

// fwd53Rows is fwd53 down the columns of a plane, a whole row at a time:
// n source rows of width w, ss apart in src, become approximation rows
// [0, (n+1)/2) and detail rows [(n+1)/2, n) of dst, ds apart. Every
// column gets exactly fwd53's arithmetic; the inner loops are contiguous.
func fwd53Rows(src []float64, ss int, dst []float64, ds, w, n int) {
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

// inv53Rows inverts fwd53Rows, likewise inv53 down every column.
func inv53Rows(src []float64, ss int, dst []float64, ds, w, n int) {
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

// analyze2D runs one separable 5/3 analysis level over the cw×ch
// rectangle at the head of pix (rows stride apart): rows into scratch,
// which must hold cw*ch values, then columns back into pix. Neither pass
// copies or gathers: each reads its input where it lies and writes its
// output where it belongs.
func analyze2D(pix []float64, stride, cw, ch int, scratch []float64) {
	for y := 0; y < ch; y++ {
		fwd53(rowOf(pix, stride, y, cw), rowOf(scratch, cw, y, cw), cw)
	}
	fwd53Rows(scratch, cw, pix, stride, cw, ch)
}

// synthesize2D inverts analyze2D: columns first, then rows.
func synthesize2D(pix []float64, stride, cw, ch int, scratch []float64) {
	inv53Rows(pix, stride, scratch, cw, cw, ch)
	for y := 0; y < ch; y++ {
		inv53(rowOf(scratch, cw, y, cw), rowOf(pix, stride, y, cw), cw)
	}
}

// maxLevels bounds the decomposition depth: beyond it no plane that fits
// in memory has a 2×2 subband left to split.
const maxLevels = 31

// subband returns the side of the level-l approximation subband of a
// plane side n: n halved, rounding up, l times.
func subband(n, l int) int { return (n + 1<<l - 1) >> l }

// checkLevels reports whether a w×h plane can be decomposed levels deep:
// every level must still find at least 2×2 to split.
func checkLevels(w, h, levels int) error {
	if levels < 1 || levels > maxLevels {
		return fmt.Errorf("compress: levels %d must be in 1..%d", levels, maxLevels)
	}
	if subband(min(w, h), levels-1) < 2 {
		return fmt.Errorf("compress: %d levels too deep for %dx%d", levels, w, h)
	}
	return nil
}

// waveletForward2D applies `levels` levels of the separable 2-D transform
// in place on a w×h plane stored row-major; scratch must hold w*h values.
func waveletForward2D(pix, scratch []float64, w, h, levels int) error {
	if err := checkLevels(w, h, levels); err != nil {
		return err
	}
	for l := 0; l < levels; l++ {
		analyze2D(pix, w, subband(w, l), subband(h, l), scratch)
	}
	return nil
}

// waveletInverse2D inverts waveletForward2D, deepest level first.
func waveletInverse2D(pix, scratch []float64, w, h, levels int) error {
	if err := checkLevels(w, h, levels); err != nil {
		return err
	}
	for l := levels - 1; l >= 0; l-- {
		synthesize2D(pix, w, subband(w, l), subband(h, l), scratch)
	}
	return nil
}

// packetForward2D applies a full wavelet-packet decomposition: unlike the
// pyramid transform (which recurses only into the LL approximation), the
// packet transform re-applies the filter pair to every subband, producing
// a uniform tiling of the frequency plane — the "wavelet packet"
// alternative basis the paper's compression module ([20]) offers for
// coding residuals. The transform recurses levels deep; w and h must be
// divisible by 2^levels for the subband grid to tile exactly, and scratch
// must hold w*h values.
func packetForward2D(pix, scratch []float64, w, h, levels int) error {
	if err := checkPacket(w, h, levels); err != nil {
		return err
	}
	packet2D(pix, scratch, w, w, h, levels, false)
	return nil
}

// packetInverse2D inverts packetForward2D.
func packetInverse2D(pix, scratch []float64, w, h, levels int) error {
	if err := checkPacket(w, h, levels); err != nil {
		return err
	}
	packet2D(pix, scratch, w, w, h, levels, true)
	return nil
}

func checkPacket(w, h, levels int) error {
	if levels < 1 || levels > maxLevels {
		return fmt.Errorf("compress: levels %d must be in 1..%d", levels, maxLevels)
	}
	if step := 1 << levels; w%step != 0 || h%step != 0 {
		return fmt.Errorf("compress: %dx%d not divisible by 2^%d for packet transform", w, h, levels)
	}
	return nil
}

// packet2D transforms the cw×ch rectangle at the head of pix and recurses
// into its four quadrants (analysis: parent first; synthesis: quadrants
// first). checkPacket has made every rectangle on the way at least 2×2.
func packet2D(pix, scratch []float64, stride, cw, ch, depth int, inverse bool) {
	if depth == 0 {
		return
	}
	if !inverse {
		analyze2D(pix, stride, cw, ch, scratch)
	}
	hw, hh := cw/2, ch/2
	for _, off := range [4]int{0, hw, hh * stride, hh*stride + hw} {
		packet2D(pix[off:], scratch, stride, hw, hh, depth-1, inverse)
	}
	if inverse {
		synthesize2D(pix, stride, cw, ch, scratch)
	}
}
