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
// detail coefficients to the second half of dst, which must not overlap
// src. n ≥ 2. The mirrored edges stand outside the loops: where a sample
// has one neighbour, that neighbour counts twice.
func fwd53(src, dst []float64, n int) {
	half, inner := (n+1)/2, (n-1)/2 // inner: odd samples with a right neighbour
	src, s, d := src[:n], dst[:half], dst[half:n]
	// Predict: d[i] = odd[i] - (even[i] + even[i+1])/2.
	for i := 0; i < inner; i++ {
		d[i] = src[2*i+1] - 0.5*(src[2*i]+src[2*i+2])
	}
	if inner < len(d) {
		d[inner] = src[n-1] - 0.5*(src[n-2]+src[n-2])
	}
	// Update: s[i] = even[i] + (d[i-1] + d[i])/4.
	s[0] = src[0] + 0.25*(d[0]+d[0])
	for i := 1; i < len(d); i++ {
		s[i] = src[2*i] + 0.25*(d[i-1]+d[i])
	}
	if len(d) < half {
		s[half-1] = src[n-1] + 0.25*(d[len(d)-1]+d[len(d)-1])
	}
}

// inv53 inverts fwd53, src and dst likewise distinct. It runs one pass:
// each even sample is un-updated (even[i] = s[i] − (d[i−1] + d[i])/4) just
// before the odd sample left of it is un-predicted from it (odd[i] = d[i] +
// (even[i] + even[i+1])/2), which is the arithmetic of two passes in
// another order.
func inv53(src, dst []float64, n int) {
	half := (n + 1) / 2
	s, d, dst := src[:half], src[half:n], dst[:n]
	dst[0] = s[0] - 0.25*(d[0]+d[0])
	i := 0
	for ; i+1 < len(d); i++ {
		dst[2*i+2] = s[i+1] - 0.25*(d[i]+d[i+1])
		dst[2*i+1] = d[i] + 0.5*(dst[2*i]+dst[2*i+2])
	}
	if len(d) < half { // odd n: the last even sample has one neighbour
		dst[n-1] = s[half-1] - 0.25*(d[i]+d[i])
		dst[n-2] = d[i] + 0.5*(dst[n-3]+dst[n-1])
	} else { // even n: the last odd sample has one neighbour
		dst[n-1] = d[i] + 0.5*(dst[n-2]+dst[n-2])
	}
}

// rowOf returns the w values of row y of a plane whose rows are stride
// apart.
func rowOf(p []float64, stride, y, w int) []float64 { return p[y*stride : y*stride+w] }

// fwd53Rows is fwd53 down the columns of the w×n rectangle at the head of
// p (rows stride apart), a whole row at a time and in place: the signal's
// even rows lie in rows [0, (n+1)/2) of p and become the approximation, its
// odd rows in the rest and become the detail. Every column gets exactly
// fwd53's arithmetic; the inner loops are contiguous.
func fwd53Rows(p []float64, stride, w, n int) {
	half := (n + 1) / 2
	for i := 0; i < n/2; i++ {
		left := rowOf(p, stride, i, w)
		right := left
		if 2*i+2 < n {
			right = rowOf(p, stride, i+1, w)
		}
		d := rowOf(p, stride, half+i, w)
		for x := range d {
			d[x] -= 0.5 * (left[x] + right[x])
		}
	}
	for i := 0; i < half; i++ {
		dl := rowOf(p, stride, half+max(i-1, 0), w)
		dr := rowOf(p, stride, half+min(i, n/2-1), w)
		s := rowOf(p, stride, i, w)
		for x := range s {
			s[x] += 0.25 * (dl[x] + dr[x])
		}
	}
}

// inv53Rows inverts fwd53Rows, likewise inv53 down every column and in
// inv53's one pass: even row i+1, then odd row i.
func inv53Rows(p []float64, stride, w, n int) {
	half, last := (n+1)/2, n/2-1 // last: the last detail row
	even, d := rowOf(p, stride, 0, w), rowOf(p, stride, half, w)
	for x := range even {
		even[x] -= 0.25 * (d[x] + d[x])
	}
	for i := 0; i <= last; i++ {
		left, odd := rowOf(p, stride, i, w), rowOf(p, stride, half+i, w)
		if i+1 == half { // even n: the last odd row has one neighbour
			for x := range odd {
				odd[x] += 0.5 * (left[x] + left[x])
			}
			break
		}
		right, dr := rowOf(p, stride, i+1, w), rowOf(p, stride, half+min(i+1, last), w)
		for x := range odd {
			o := odd[x]
			r := right[x] - 0.25*(o+dr[x])
			right[x] = r
			odd[x] = o + 0.5*(left[x]+r)
		}
	}
}

// liftScratch is all the 2-D transforms need beside the plane they work
// in: one row, and one mark per row.
type liftScratch struct {
	row  []float64
	seen []bool
}

func newLiftScratch(w, h int) *liftScratch { return new(liftScratch).fit(w, h) }

// fit makes sc hold a row of w and a mark for each of h rows, growing
// only what falls short, and returns it.
func (sc *liftScratch) fit(w, h int) *liftScratch {
	if cap(sc.row) < w {
		sc.row = make([]float64, w)
	}
	if cap(sc.seen) < h {
		sc.seen = make([]bool, h)
	}
	sc.row, sc.seen = sc.row[:w], sc.seen[:h]
	return sc
}

// liftRows replaces every row y of the cw×ch rectangle at the head of pix
// with lift of row from(y), from being a permutation of [0, ch): it walks
// each cycle backwards from a saved copy of its first row, so every other
// row is lifted from where it lies into the row just vacated.
func (sc *liftScratch) liftRows(pix []float64, stride, cw, ch int, lift func(src, dst []float64, n int), from func(y int) int) {
	saved, seen := sc.row[:cw], sc.seen[:ch]
	clear(seen)
	for y0 := range seen {
		if seen[y0] {
			continue
		}
		copy(saved, rowOf(pix, stride, y0, cw))
		for y, src := y0, from(y0); ; y, src = src, from(src) {
			seen[y] = true
			if src == y0 {
				lift(saved, rowOf(pix, stride, y, cw), cw)
				break
			}
			lift(rowOf(pix, stride, src, cw), rowOf(pix, stride, y, cw), cw)
		}
	}
}

// analyze2D runs one separable 5/3 analysis level in place over the cw×ch
// rectangle at the head of pix (rows stride apart): every row is lifted
// into the place its parity gives it — even rows to the top half, odd rows
// to the bottom — and the columns are then lifted where they lie.
func analyze2D(pix []float64, stride, cw, ch int, sc *liftScratch) {
	half := (ch + 1) / 2
	sc.liftRows(pix, stride, cw, ch, fwd53, func(y int) int { return 2*(y%half) + y/half })
	fwd53Rows(pix, stride, cw, ch)
}

// synthesize2D inverts analyze2D: columns first, then every row into the
// place it interleaves to, by lift: inv53, or inv53Clamp for the final
// pixels.
func synthesize2D(pix []float64, stride, cw, ch int, sc *liftScratch, lift func(src, dst []float64, n int)) {
	inv53Rows(pix, stride, cw, ch)
	half := (ch + 1) / 2
	sc.liftRows(pix, stride, cw, ch, lift, func(y int) int { return (y&1)*half + y/2 })
}

// inv53Clamp is inv53 with every sample it writes then clamped to [0, 1],
// while the row is still in cache.
func inv53Clamp(src, dst []float64, n int) {
	inv53(src, dst, n)
	clampAll(dst[:n])
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
// in place on a w×h plane stored row-major.
func waveletForward2D(pix []float64, w, h, levels int) error {
	if err := checkLevels(w, h, levels); err != nil {
		return err
	}
	sc := newLiftScratch(w, h)
	for l := 0; l < levels; l++ {
		analyze2D(pix, w, subband(w, l), subband(h, l), sc)
	}
	return nil
}

// waveletInverse2D inverts waveletForward2D, deepest level first, in
// sc, which it fits to the plane; with clamp set it clamps the pixels to
// [0, 1] as the last level writes them.
func waveletInverse2D(pix []float64, w, h, levels int, clamp bool, sc *liftScratch) error {
	if err := checkLevels(w, h, levels); err != nil {
		return err
	}
	sc.fit(w, h)
	for l := levels - 1; l >= 0; l-- {
		lift := inv53
		if clamp && l == 0 {
			lift = inv53Clamp
		}
		synthesize2D(pix, w, subband(w, l), subband(h, l), sc, lift)
	}
	return nil
}

// packetForward2D applies a full wavelet-packet decomposition: unlike the
// pyramid transform (which recurses only into the LL approximation), the
// packet transform re-applies the filter pair to every subband, producing
// a uniform tiling of the frequency plane — the "wavelet packet"
// alternative basis the paper's compression module ([20]) offers for
// coding residuals. The transform recurses levels deep; w and h must be
// divisible by 2^levels for the subband grid to tile exactly.
func packetForward2D(pix []float64, w, h, levels int) error {
	if err := checkPacket(w, h, levels); err != nil {
		return err
	}
	packet2D(pix, newLiftScratch(w, h), w, w, h, levels, false)
	return nil
}

// packetInverse2D inverts packetForward2D in sc, which it fits to the
// plane.
func packetInverse2D(pix []float64, w, h, levels int, sc *liftScratch) error {
	if err := checkPacket(w, h, levels); err != nil {
		return err
	}
	packet2D(pix, sc.fit(w, h), w, w, h, levels, true)
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
func packet2D(pix []float64, sc *liftScratch, stride, cw, ch, depth int, inverse bool) {
	if depth == 0 {
		return
	}
	if !inverse {
		analyze2D(pix, stride, cw, ch, sc)
	}
	hw, hh := cw/2, ch/2
	for _, off := range [4]int{0, hw, hh * stride, hh*stride + hw} {
		packet2D(pix[off:], sc, stride, hw, hh, depth-1, inverse)
	}
	if inverse {
		synthesize2D(pix, stride, cw, ch, sc, inv53)
	}
}
