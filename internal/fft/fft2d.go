package fft

import "cfaopc/internal/grid"

// Forward2D computes the in-place 2D forward DFT of g (rows first, then
// columns).
func Forward2D(g *grid.Complex) { transform2D(g, false, full(g.H), full(g.W)) }

// Inverse2D computes the in-place 2D inverse DFT of g, scaled by 1/(W·H).
func Inverse2D(g *grid.Complex) { transform2D(g, true, full(g.H), full(g.W)) }

// Inverse2DBand is Inverse2D for a spectrum confined to the rows of the
// band |fy| ≤ half (rows 0..half and H-half..H-1). Only those rows are
// read: every other row is taken to be zero whatever it holds, so a
// caller reusing a buffer need not clear it. Zero rows transform to zero
// and add nothing to a column, so skipping them leaves every element
// equal to what Inverse2D computes from the zero-filled spectrum. When
// the band covers the axis it is Inverse2D.
func Inverse2DBand(g *grid.Complex, half int) {
	transform2D(g, true, band(g.H, half), full(g.W))
}

// Forward2DBand computes the forward DFT of g on the columns of the band
// |fx| ≤ half (columns 0..half and W-half..W-1) only, where it equals
// Forward2D's result on every row. The other columns are left holding
// row-pass intermediates and must not be read. When the band covers the
// axis it is Forward2D.
func Forward2DBand(g *grid.Complex, half int) {
	transform2D(g, false, full(g.H), band(g.W, half))
}

// ColumnPass runs only the column half of a 2-D transform: the forward DFT
// (the inverse, with its 1/H, when inverse is set) of each column in
// [x0, x1), reading only the rows of the band |fy| ≤ rowHalf (every row
// when rowHalf < 0). Columns transform independently, so after the same
// row pass each is == to what the 2-D transforms above leave in it.
func ColumnPass(g *grid.Complex, inverse bool, rowHalf, x0, x1 int) {
	columnPass(g, inverse, band(g.H, rowHalf), [2]span{{x0, x1}})
}

// span is a half-open index range.
type span struct{ lo, hi int }

func full(n int) [2]span { return [2]span{{0, n}} }

// band returns the index ranges holding the wrapped frequencies |f| ≤ half
// of an n-point axis.
func band(n, half int) [2]span {
	if half < 0 || 2*half+1 >= n {
		return full(n)
	}
	return [2]span{{0, half + 1}, {n - half, n}}
}

// transform2D runs the row pass over the given rows and then the column
// pass over the given columns; rows outside the given ones count as zero
// and are never read. Rows are transformed in place.
func transform2D(g *grid.Complex, inverse bool, rows, cols [2]span) {
	w := g.W
	rowPlan := cachedPlan(w)
	rw := rowPlan.getWork()
	for _, r := range rows {
		for y := r.lo; y < r.hi; y++ {
			row := g.Data[y*w : (y+1)*w]
			if inverse {
				rowPlan.inverse(row, *rw)
			} else {
				rowPlan.transform(row, *rw, 1)
			}
		}
	}
	rowPlan.work.Put(rw)
	columnPass(g, inverse, rows, cols)
}

// columnPass transforms the given columns, reading only the given rows.
// Columns go blockCols at a time: the block's rows are copied as they lie
// into the plan's work buffer (absent rows cleared there), transformed as
// interleaved sequences, and copied back, with the inverse's index
// reversal and 1/H folded into the copy.
func columnPass(g *grid.Complex, inverse bool, rows, cols [2]span) {
	w, h := g.W, g.H
	allRows := rows[0].hi-rows[0].lo == h
	colPlan := cachedPlan(h)
	cw := colPlan.getWork()
	scratch := (*cw)[blockCols*h:]
	inv := 1 / float64(h)
	for _, c := range cols {
		for x := c.lo; x < c.hi; x += blockCols {
			nb := min(blockCols, c.hi-x)
			buf := (*cw)[:nb*h]
			if !allRows {
				clear(buf[rows[0].hi*nb : rows[1].lo*nb])
			}
			for _, r := range rows {
				for y := r.lo; y < r.hi; y++ {
					copy(buf[y*nb:], g.Data[y*w+x:][:nb])
				}
			}
			colPlan.transform(buf, scratch, nb)
			for y := 0; y < h; y++ {
				out := g.Data[y*w+x:][:nb]
				if !inverse {
					copy(out, buf[y*nb:])
					continue
				}
				src := y
				if y > 0 {
					src = h - y
				}
				for b, v := range buf[src*nb:][:nb] {
					out[b] = scale(v, inv)
				}
			}
		}
	}
	colPlan.work.Put(cw)
}
