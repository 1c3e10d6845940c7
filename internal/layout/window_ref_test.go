package layout

import (
	"fmt"

	"cfaopc/internal/grid"
)

// fillSpan paints the intersection of span s (full-grid pixel
// coordinates) with the window at origin (x0, y0) and reports whether any
// pixel was painted. It is the reference's own painter, independent of
// layout.Paint, so the two cannot share a clipping or indexing bug.
func fillSpan(m *grid.Real, s Span, x0, y0 int) bool {
	cx0, cx1 := max(s.X0-x0, 0), min(s.X1-x0, m.W)
	cy0, cy1 := max(s.Y0-y0, 0), min(s.Y1-y0, m.H)
	if cx0 >= cx1 || cy0 >= cy1 {
		return false
	}
	for y := cy0; y < cy1; y++ {
		for x := cx0; x < cx1; x++ {
			m.Data[y*m.W+x] = 1
		}
	}
	return true
}

// RasterizeWindow rasterizes only the w×h pixel window at origin
// (x0, y0) of the n×n full-tile grid, directly from the rect geometry —
// no full-grid allocation. The origin may be negative and the window may
// overhang the grid; out-of-grid pixels stay empty. The result is
// byte-identical to extracting the same window out of Rasterize(n), and
// the bool reports whether any foreground pixel landed in the window.
func (l *Layout) RasterizeWindow(n, x0, y0, w, h int) (*grid.Real, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("layout: invalid grid size %d", n))
	}
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("layout: invalid window %dx%d", w, h))
	}
	m := grid.NewReal(w, h)
	occupied := false
	for _, r := range l.Rects {
		s, ok := l.span(r, n)
		if !ok {
			continue
		}
		if fillSpan(m, s, x0, y0) {
			occupied = true
		}
	}
	return m, occupied
}
