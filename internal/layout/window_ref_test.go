package layout

import (
	"fmt"

	"cfaopc/internal/grid"
)

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
