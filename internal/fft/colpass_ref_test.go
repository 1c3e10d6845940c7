package fft

import (
	"fmt"
	"testing"

	"cfaopc/internal/grid"
)

// colBlock is how many adjacent columns the reference column pass gathers
// at once: four complex128 values are one 64-byte cache line of a row.
const colBlock = 4

// transformRef, bluesteinRef and inverseRef are the 1-D drivers as they
// stood before transform took interleaved sequences: one contiguous
// sequence, every stage at its own stride. They share the plan's tables
// and the radixN bodies with the code under test and nothing else.
func transformRef(p *Plan, x, scratch []complex128) {
	if p.conv != nil {
		bluesteinRef(p, x, scratch)
		return
	}
	scratch = scratch[:p.n]
	last := len(p.stages) - 1
	for i := range p.stages {
		src, dst := x, scratch
		if i%2 == 1 {
			src, dst = scratch, x
		}
		if i == last {
			dst = x
		}
		p.stages[i].run(src, dst)
	}
}

func bluesteinRef(p *Plan, x, scratch []complex128) {
	n, m := p.n, p.conv.n
	a, inner := scratch[:m], scratch[m:2*m]
	for k, v := range x {
		a[k] = v * p.chirp[k]
	}
	clear(a[n:])
	transformRef(p.conv, a, inner)
	for i, f := range p.filter {
		a[i] *= f
	}
	transformRef(p.conv, a, inner)
	x[0] = a[0] * p.chirp[0]
	for k := 1; k < n; k++ {
		x[k] = a[m-k] * p.chirp[k]
	}
}

func inverseRef(p *Plan, x, scratch []complex128) {
	transformRef(p, x, scratch)
	inv := 1 / float64(p.n)
	x[0] = scale(x[0], inv)
	for i, j := 1, p.n-1; i <= j; i, j = i+1, j-1 {
		x[i], x[j] = scale(x[j], inv), scale(x[i], inv)
	}
}

// transform2DRef is the 2-D transform as it stood before the column pass
// went interleaved, kept as the oracle: columns are gathered colBlock at a
// time, transposed, into a buffer where each is contiguous and zero
// outside the given rows, transformed one by one by the 1-D plan, and
// scattered back transposed. Its buffers are its own.
func transform2DRef(g *grid.Complex, inverse bool, rows, cols [2]span) {
	w, h := g.W, g.H
	allRows := rows[0].hi-rows[0].lo == h

	rowPlan := cachedPlan(w)
	scratch := make([]complex128, rowPlan.scratch)
	for _, r := range rows {
		for y := r.lo; y < r.hi; y++ {
			row := g.Data[y*w : (y+1)*w]
			if inverse {
				inverseRef(rowPlan, row, scratch)
			} else {
				transformRef(rowPlan, row, scratch)
			}
		}
	}

	colPlan := cachedPlan(h)
	buf, scratch := make([]complex128, colBlock*h), make([]complex128, colPlan.scratch)
	inv := 1 / float64(h)
	for _, c := range cols {
		for x := c.lo; x < c.hi; x += colBlock {
			nb := min(colBlock, c.hi-x)
			if !allRows {
				clear(buf[:nb*h])
			}
			for _, r := range rows {
				for y := r.lo; y < r.hi; y++ {
					for b, v := range g.Data[y*w+x : y*w+x+nb] {
						buf[b*h+y] = v
					}
				}
			}
			for b := 0; b < nb; b++ {
				transformRef(colPlan, buf[b*h:(b+1)*h], scratch)
			}
			for y := 0; y < h; y++ {
				out := g.Data[y*w+x : y*w+x+nb]
				if !inverse {
					for b := range out {
						out[b] = buf[b*h+y]
					}
					continue
				}
				src := y
				if y > 0 {
					src = h - y
				}
				for b := range out {
					out[b] = scale(buf[b*h+src], inv)
				}
			}
		}
	}
}

// lossGradBands are the (N, half) pairs litho.LossGrad hands the band
// transforms — the pixel grid and the simulation grid, each at the kernel
// support half and at 2·half — for the benchmark's 192-px (1536 nm),
// 128-px (1024 nm) and 96-px (384 nm) windows.
var lossGradBands = [][2]int{
	{192, 20}, {192, 40}, {96, 20}, {96, 40},
	{128, 13}, {128, 26}, {64, 13}, {64, 26},
	{96, 5}, {96, 10}, {24, 5}, {24, 10},
}

// The interleaved column pass against the transposing one, == on every
// element each entry point documents as valid: all of Forward2D and
// Inverse2D, all of Inverse2DBand (whose other rows hold junk it must not
// read), the band columns of Forward2DBand. Sizes cover non-square grids,
// first stages that are not radix-4 (30 = 2·3·5), one-stage plans (4) and
// Bluestein (7, 13, 97); bands cover 0, 1, n/9, LossGrad's, widths that
// are not a multiple of the block (41 = 21 + 20 columns, 81) and one that
// covers the axis.
func TestColumnPassMatchesRef(t *testing.T) {
	sizes := [][2]int{{24, 24}, {64, 64}, {96, 96}, {128, 128}, {192, 192}, {256, 256}, {96, 30}, {30, 96}, {7, 13}, {97, 97}, {40, 4}, {50, 20}}
	if testing.Short() {
		sizes = [][2]int{{24, 24}, {96, 96}, {192, 192}, {96, 30}, {30, 96}, {7, 13}, {97, 97}, {40, 4}}
	}
	for _, wh := range sizes {
		w, h := wh[0], wh[1]
		n := max(w, h)
		halves := []int{0, 1, n / 9, 20, 40, n / 2}
		for _, nb := range lossGradBands {
			if nb[0] == n {
				halves = append(halves, nb[1])
			}
		}
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			for _, inverse := range []bool{false, true} {
				in := randomGrid(w, h, int64(w+h))
				got, want := cloneComplex(in), cloneComplex(in)
				transform2D(got, inverse, full(h), full(w))
				transform2DRef(want, inverse, full(h), full(w))
				compare(t, fmt.Sprintf("full inverse=%v", inverse), got, want, -1)
			}
			for _, half := range halves {
				in := randomGrid(w, h, int64(w+h+half))
				got, want := cloneComplex(in), cloneComplex(in)
				Forward2DBand(got, half)
				transform2DRef(want, false, full(h), band(w, half))
				compare(t, fmt.Sprintf("Forward2DBand half=%d", half), got, want, half)

				got, want = cloneComplex(in), cloneComplex(in)
				Inverse2DBand(got, half)
				transform2DRef(want, true, band(h, half), full(w))
				compare(t, fmt.Sprintf("Inverse2DBand half=%d", half), got, want, -1)
			}
		})
	}
}

// compare fails on the first element of the columns |fx| ≤ colHalf (every
// column when negative) where got != want.
func compare(t *testing.T, what string, got, want *grid.Complex, colHalf int) {
	t.Helper()
	for _, c := range band(got.W, colHalf) {
		for y := 0; y < got.H; y++ {
			for x := c.lo; x < c.hi; x++ {
				if got.At(x, y) != want.At(x, y) {
					t.Fatalf("%s: (%d,%d) = %v, reference %v", what, x, y, got.At(x, y), want.At(x, y))
				}
			}
		}
	}
}
