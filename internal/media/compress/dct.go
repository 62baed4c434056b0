package compress

import (
	"sync/atomic"

	"mmconf/internal/media/dsp"
)

// blockDCT is the blocked local-cosine transform of one plane geometry:
// a separable orthonormal DCT-II over block×block tiles, edge tiles at
// their actual smaller size, against the cosines of the three tile sides
// there can be (basisFor). A tile is transformed in two passes that both
// run along rows, so that every inner loop is contiguous: a row pass of
// multiply-adds against the basis, then a column pass that moves whole
// rows through the even/odd butterfly of dctBasis.
type blockDCT struct {
	w, h, block        int
	full, edgeW, edgeH *dctBasis // sides block, w%block and h%block (nil for 0)
	rows, sums         []float64 // one tile after the row pass, and out of the inverse column pass
	live               []bool    // which rows of rows hold a nonzero term
	clamp              bool      // the inverse writes the final pixels: clamp them to [0, 1]
}

// fit shapes t to the tiles of a w×h plane, block on a side, and returns
// it. The tile scratch t already has is kept when it holds a tile, so a
// pooled decoder makes none for a geometry it has decoded before.
func (t *blockDCT) fit(w, h, block int) *blockDCT {
	t.w, t.h, t.block = w, h, block
	t.full, t.edgeW, t.edgeH = basisFor(block), basisFor(w%block), basisFor(h%block)
	bw, bh := min(block, w), min(block, h)
	if n := bw * bh; cap(t.rows) < 2*n {
		work := make([]float64, 2*n)
		t.rows, t.sums = work[:n], work[n:]
	} else {
		t.rows, t.sums = t.rows[:n], t.rows[n:2*n]
	}
	if cap(t.live) < bh {
		t.live = make([]bool, bh)
	}
	t.live = t.live[:bh]
	return t
}

// maxSharedSide is the largest tile side whose cosines are tabulated once
// for the process: every side the default block of 16 can give, and those
// of blocks up to 64, at 1.7 MiB for all of them. A larger side, up to
// maxBlock, is tabulated for each transform: the tables of them all come
// to about 100 MiB.
const maxSharedSide = 64

// sharedBases holds the tables of each side up to maxSharedSide, made by
// the first transform that needs them and only read after.
var sharedBases [maxSharedSide + 1]atomic.Pointer[dctBasis]

// basisFor returns the cosines of a tile side of n, nil for 0.
func basisFor(n int) *dctBasis {
	if n == 0 {
		return nil
	}
	if n > maxSharedSide {
		b := newDCTBasis(n)
		return &b
	}
	if b := sharedBases[n].Load(); b != nil {
		return b
	}
	b := newDCTBasis(n)
	sharedBases[n].CompareAndSwap(nil, &b) // a racing tabulation made the same tables
	return sharedBases[n].Load()
}

// bases returns the bases of the two sides of a bw×bh tile.
func (t *blockDCT) bases(bw, bh int) (bx, by *dctBasis) {
	bx, by = t.full, t.full
	if bw < t.block {
		bx = t.edgeW
	}
	if bh < t.block {
		by = t.edgeH
	}
	return bx, by
}

// transform runs the forward transform of every tile of src into dst
// (which may be src itself), or with inverse set adds the inverse
// transform of every tile of src onto dst. Terms with a zero factor are
// skipped — all of them in an all-zero tile, most of them in a quantized
// residual — which leaves every sum what it would have been.
func (t *blockDCT) transform(dst, src []float64, inverse bool) {
	for y0 := 0; y0 < t.h; y0 += t.block {
		bh := min(t.block, t.h-y0)
		for x0 := 0; x0 < t.w; x0 += t.block {
			bw := min(t.block, t.w-x0)
			bx, by := t.bases(bw, bh)
			for y := 0; y < bh; y++ {
				row := t.rows[y*bw:][:bw]
				clear(row)
				t.live[y] = false
				for i, c := range src[(y0+y)*t.w+x0:][:bw] {
					switch {
					case c == 0:
						continue
					case inverse:
						bx.term(row, i, c)
					default:
						axpy(row, c, bx.at[i*bw:])
					}
					t.live[y] = true
				}
			}
			if inverse {
				t.addColumns(dst[y0*t.w+x0:], bx, by, bw, bh)
			} else {
				by.analyze(dst[y0*t.w+x0:], t.w, t.rows, t.live, bw, 0, by.cols)
			}
		}
	}
}

// band adds the inverse transform of one strip of coefficients, bh rows
// high, onto the w-wide rows of dst that hold it, starting at its first.
// A tile's row pass takes its rows' coefficients off the strip in column
// order, so it makes the multiply-adds transform makes of the same
// coefficients laid out in a plane.
func (t *blockDCT) band(dst []float64, s *strip, bh int) {
	for x0 := 0; x0 < t.w; x0 += t.block {
		bw := min(t.block, t.w-x0)
		bx, by := t.bases(bw, bh)
		for y := 0; y < bh; y++ {
			row := t.rows[y*bw:][:bw]
			clear(row)
			t.live[y] = s.fold(row, bx, y*t.w+x0)
		}
		t.addColumns(dst[x0:], bx, by, bw, bh)
	}
}

// addColumns runs the inverse column pass over the row pass's tile and
// adds the result onto the bh rows of dst, bw wide, that hold the tile,
// doing on the way the butterfly the row pass left undone; with clamp set
// it clamps every pixel it writes, or where it lies if the tile adds
// nothing.
func (t *blockDCT) addColumns(dst []float64, bx, by *dctBasis, bw, bh int) {
	live := by.synth(t.sums, t.rows, t.live, bw, 0, by.cols)
	for y := 0; y < bh && (live || t.clamp); y++ {
		out, sum := dst[y*t.w:][:bw], t.sums[y*bw:][:bw]
		switch {
		case !live:
			clampAll(out)
		case bx.half == 0:
			for x, v := range sum {
				if a := out[x] + v; t.clamp {
					out[x] = clamp01(a)
				} else {
					out[x] = a
				}
			}
		default:
			for x := 0; x < bx.half; x++ {
				e, o := sum[x], sum[bw-1-x]
				a, b := out[x]+(e-o), out[bw-1-x]+(e+o)
				if t.clamp {
					a, b = clamp01(a), clamp01(b)
				}
				out[x], out[bw-1-x] = a, b
			}
		}
	}
}

// dctBasis is the n×n orthonormal DCT-II matrix of one tile side, laid out
// for the passes of a tile: vec[k*n+i] = at[i*n+k] = b_k(i), basis vector
// k at sample i.
//
// The inverse passes are built on the symmetry b_k(n−1−y) = (−1)^k·b_k(y):
// at y and n−1−y the terms of even k sum to the same E_y, those of odd k
// to O_y and −O_y. So for an even n the odd terms are needed at half the
// samples only, and the even terms are themselves a transform of half the
// length over every other k.
//
// The row pass splits once (term): a term of even k adds into the first
// half of the row only, making E_y there, one of odd k into the second
// half only, making −O_y at n−1−y; the add onto the plane combines the
// two. For an odd n, half is 0 and a term adds into the whole row.
//
// The column passes split while the length stays even: level l handles
// every 2^l-th k over r = n>>l samples. cols holds, level after level,
// each level's (r/2)² odd terms b_{2^l(2i+1)}(y) (y, i < r/2, y-major),
// then at the first odd r the r² terms b_{2^l·j}(y) that level multiplies
// out directly: all n² of them for an odd side. The forward column pass
// runs the same split transposed; the forward row pass is a plain product
// against at.
type dctBasis struct {
	n, half       int // half is n/2 for an even n, else 0
	vec, at, cols []float64
}

// newDCTBasis tabulates dsp's cosines for a tile side of n ≥ 1.
func newDCTBasis(n int) dctBasis {
	b := dctBasis{n: n, vec: dsp.DCTBasis(n), at: make([]float64, n*n)}
	if n%2 == 0 {
		b.half = n / 2
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			b.at[i*n+k] = b.vec[k*n+i]
		}
	}
	size, r := 0, n
	for ; r%2 == 0; r /= 2 {
		size += r / 2 * (r / 2)
	}
	b.cols = make([]float64, 0, size+r*r)
	m := 1
	for r = n; r%2 == 0; r, m = r/2, 2*m {
		for y := 0; y < r/2; y++ {
			for i := 0; i < r/2; i++ {
				b.cols = append(b.cols, b.vec[m*(2*i+1)*n+y])
			}
		}
	}
	for y := 0; y < r; y++ {
		for j := 0; j < r; j++ {
			b.cols = append(b.cols, b.vec[m*j*n+y])
		}
	}
	return b
}

// term adds c times basis vector k into row as the inverse row pass lays
// it out: over the half of the row that k's parity makes, or all of it.
func (b *dctBasis) term(row []float64, k int, c float64) {
	off := k & 1 * b.half
	axpy(row[off:][:b.n-b.half], c, b.vec[k*b.n+off:])
}

// synth is level l of the inverse column pass: into the first r = n>>l
// rows of out it writes T_y = Σ_j b_{m·j}(y)·in_{m·j} (m = 2^l), the
// inverse transform of every m-th row of in; tab is cols from level l on.
// Rows are w wide in both. Rows of in that are not live are zero and are
// skipped; when all that it would read are, synth leaves out alone and
// reports false.
func (b *dctBasis) synth(out, in []float64, live []bool, w, l int, tab []float64) bool {
	m, r := 1<<l, b.n>>l
	if r%2 == 1 {
		if !anyLive(live, 0, m, r) {
			return false
		}
		for y := 0; y < r; y++ {
			o := out[y*w:][:w]
			clear(o)
			mulAdd(o, in, live, 0, m, tab[y*r:], 1, r)
		}
		return true
	}
	// The even terms E_y land in rows y < h, the odd ones O_y in row
	// r−1−y, so that the butterfly turns each pair of rows in place into
	// T_y = E_y + O_y and T_{r−1−y} = E_y − O_y.
	h := r / 2
	even, odd := b.synth(out, in, live, w, l+1, tab[h*h:]), anyLive(live, m, 2*m, h)
	if !even && !odd {
		return false
	}
	if !even {
		clear(out[:h*w])
	}
	for y := 0; y < h; y++ {
		o := out[(r-1-y)*w:][:w]
		clear(o)
		if odd {
			mulAdd(o, in, live, m, 2*m, tab[y*h:], 1, h)
		}
	}
	for y := 0; y < h; y++ {
		butterfly(out[y*w:][:w], out[(r-1-y)*w:])
	}
	return true
}

// analyze is synth transposed, level l of the forward column pass: it
// writes X_{m·j} = Σ_y b_{m·j}(y)·a_y into row m·j of out (rows stride
// apart) for j < r, the forward transform of the first r rows of a, w
// wide. The butterfly goes first here, turning a_y and a_{r−1−y} into
// their sum, which the even terms take, and their difference, which the
// odd ones take; it overwrites a and live.
func (b *dctBasis) analyze(out []float64, stride int, a []float64, live []bool, w, l int, tab []float64) {
	m, r := 1<<l, b.n>>l
	if r%2 == 1 {
		for j := 0; j < r; j++ {
			o := out[j*m*stride:][:w]
			clear(o)
			mulAdd(o, a, live, 0, 1, tab[j:], r, r)
		}
		return
	}
	h := r / 2
	for y := 0; y < h; y++ {
		if live[y] || live[r-1-y] {
			butterfly(a[y*w:][:w], a[(r-1-y)*w:])
			live[y], live[r-1-y] = true, true
		}
	}
	b.analyze(out, stride, a, live, w, l+1, tab[h*h:])
	for i := 0; i < h; i++ {
		o := out[(2*i+1)*m*stride:][:w]
		clear(o)
		mulAdd(o, a, live, r-1, -1, tab[i:], h, h)
	}
}

// mulAdd is the product both column passes are made of: it adds
// Σ_{i<n} c[i·cs]·in_{first+i·step} to o, rows of in as wide as o, four
// terms at a time. A four whose rows are all dead is skipped, as is a dead
// row of the few left over: a dead row is zero, so skipping it adds what
// adding it would.
func mulAdd(o, in []float64, live []bool, first, step int, c []float64, cs, n int) {
	w, i := len(o), 0
	for ; i+4 <= n; i += 4 {
		r := first + i*step
		if live[r] || live[r+step] || live[r+2*step] || live[r+3*step] {
			axpy4(o, c[i*cs], c[(i+1)*cs], c[(i+2)*cs], c[(i+3)*cs],
				in[r*w:], in[(r+step)*w:], in[(r+2*step)*w:], in[(r+3*step)*w:])
		}
	}
	for ; i < n; i++ {
		if r := first + i*step; live[r] {
			axpy(o, c[i*cs], in[r*w:])
		}
	}
}

// axpy4 adds a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i] to every y[i]: four
// axpys in one pass over y.
func axpy4(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// anyLive reports whether any of the n rows first, first+step, … is live.
func anyLive(live []bool, first, step, n int) bool {
	for i := 0; i < n; i++ {
		if live[first+i*step] {
			return true
		}
	}
	return false
}

// axpy adds a·x[i] to every y[i]; x must be at least as long as y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// butterfly replaces every x[i], y[i] by x[i]+y[i], x[i]−y[i]; y must be
// at least as long as x.
func butterfly(x, y []float64) {
	y = y[:len(x)]
	for i, u := range x {
		x[i], y[i] = u+y[i], u-y[i]
	}
}
