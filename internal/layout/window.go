package layout

import (
	"fmt"
	"sort"

	"cfaopc/internal/grid"
)

// pxSpan is one rectangle's half-open pixel footprint [X0, X1) × [Y0, Y1)
// on an n×n grid, clipped to the grid, in the same pixel-center
// convention Rasterize uses.
type pxSpan struct{ X0, X1, Y0, Y1 int }

// span computes r's clipped pixel span with exactly the arithmetic
// Rasterize uses, so a window rasterized from spans can never drift from
// the full-grid raster by even one pixel. ok is false when the clipped
// span is empty.
func (l *Layout) span(r Rect, n int) (pxSpan, bool) {
	dx := float64(l.TileNM) / float64(n)
	s := pxSpan{
		X0: int(ceilDiv(float64(r.X), dx)),
		X1: int(ceilDiv(float64(r.X+r.W), dx)),
		Y0: int(ceilDiv(float64(r.Y), dx)),
		Y1: int(ceilDiv(float64(r.Y+r.H), dx)),
	}
	if s.X0 < 0 {
		s.X0 = 0
	}
	if s.Y0 < 0 {
		s.Y0 = 0
	}
	if s.X1 > n {
		s.X1 = n
	}
	if s.Y1 > n {
		s.Y1 = n
	}
	return s, s.X0 < s.X1 && s.Y0 < s.Y1
}

// fillSpan paints the intersection of span s (full-grid pixel
// coordinates) with the w×h window at origin (x0, y0) and reports
// whether any pixel was painted. Painting is idempotent (pixels go to 1),
// so overlapping spans compose safely.
func fillSpan(m *grid.Real, s pxSpan, x0, y0 int) bool {
	cx0, cx1 := s.X0-x0, s.X1-x0
	cy0, cy1 := s.Y0-y0, s.Y1-y0
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 > m.W {
		cx1 = m.W
	}
	if cy1 > m.H {
		cy1 = m.H
	}
	if cx0 >= cx1 || cy0 >= cy1 {
		return false
	}
	for y := cy0; y < cy1; y++ {
		row := m.Data[y*m.W : y*m.W+m.W]
		for x := cx0; x < cx1; x++ {
			row[x] = 1
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

// indexBandRows is the row-bucket granularity of WindowIndex. Buckets
// much smaller than a typical tile row would only grow the index; much
// larger ones would scan rects far from the window.
const indexBandRows = 64

// WindowIndex accelerates repeated RasterizeWindow queries over one
// layout at a fixed grid size: every rect's pixel span is precomputed
// once and bucketed by horizontal row band, so rasterizing a window
// touches only the rects whose spans can overlap the window's rows —
// O(overlapping rects), not O(all rects). This is what lets the tiled
// flow stream windows instead of holding an O(n²) full-grid raster.
type WindowIndex struct {
	n        int
	bandRows int
	bands    [][]pxSpan
	spans    int // total bucketed span entries, for memory accounting
}

// NewWindowIndex builds the row-bucketed span index for l on an n×n grid.
func NewWindowIndex(l *Layout, n int) *WindowIndex {
	if n <= 0 {
		panic(fmt.Sprintf("layout: invalid grid size %d", n))
	}
	ix := &WindowIndex{n: n, bandRows: indexBandRows}
	nb := (n + ix.bandRows - 1) / ix.bandRows
	ix.bands = make([][]pxSpan, nb)
	for _, r := range l.Rects {
		s, ok := l.span(r, n)
		if !ok {
			continue
		}
		for b := s.Y0 / ix.bandRows; b <= (s.Y1-1)/ix.bandRows; b++ {
			ix.bands[b] = append(ix.bands[b], s)
			ix.spans++
		}
	}
	return ix
}

// N returns the grid size the index was built for.
func (ix *WindowIndex) N() int { return ix.n }

// Bytes estimates the index's resident size, for memory accounting.
func (ix *WindowIndex) Bytes() int64 {
	const spanBytes = 4 * 8 // four ints
	return int64(ix.spans)*spanBytes + int64(len(ix.bands))*24
}

// Occupancy returns the number of foreground pixels the w×h window at
// origin (x0, y0) would contain, without allocating the raster. For a
// validated layout (non-overlapping rects) the count is exact: the
// center-sample convention maps disjoint rects to disjoint pixel spans,
// so summing clipped span areas never double-counts. It agrees with
// Window — occupancy zero if and only if Window reports unoccupied — and
// is what the benchmark's probes pick their densest window by.
func (ix *WindowIndex) Occupancy(x0, y0, w, h int) int {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("layout: invalid window %dx%d", w, h))
	}
	gy0, gy1 := y0, y0+h
	if gy0 < 0 {
		gy0 = 0
	}
	if gy1 > ix.n {
		gy1 = ix.n
	}
	if gy0 >= gy1 {
		return 0
	}
	total := 0
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		lo, hi := b*ix.bandRows, (b+1)*ix.bandRows
		for _, s := range ix.bands[b] {
			// Clip rows to the bucket (spans repeat across buckets),
			// then to the window, then columns to the window ∩ grid.
			if s.Y0 < lo {
				s.Y0 = lo
			}
			if s.Y1 > hi {
				s.Y1 = hi
			}
			if s.Y0 < y0 {
				s.Y0 = y0
			}
			if s.Y1 > y0+h {
				s.Y1 = y0 + h
			}
			if s.X0 < x0 {
				s.X0 = x0
			}
			if s.X1 > x0+w {
				s.X1 = x0 + w
			}
			if s.X0 < s.X1 && s.Y0 < s.Y1 {
				total += (s.X1 - s.X0) * (s.Y1 - s.Y0)
			}
		}
	}
	return total
}

// Span is one owning rectangle's half-open pixel footprint
// [X0, X1) × [Y0, Y1) translated into window-local coordinates. It is
// the canonical geometry the window dedup cache hashes alongside the
// target raster: two windows over pixel-identical content produce
// identical span lists regardless of where they sit on the full grid.
type Span struct{ X0, X1, Y0, Y1 int }

// WindowSpans returns the canonical window-local footprint of every
// indexed rect that overlaps the w×h window at (x0, y0): clipped to the
// window ∩ grid, translated so the window origin is (0, 0), deduplicated
// (a rect bucketed into several row bands appears once), and sorted by
// (Y0, X0, Y1, X1). The result is independent of the index's internal
// bucket size, so it is a stable cache-key ingredient.
func (ix *WindowIndex) WindowSpans(x0, y0, w, h int) []Span {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("layout: invalid window %dx%d", w, h))
	}
	gy0, gy1 := y0, y0+h
	if gy0 < 0 {
		gy0 = 0
	}
	if gy1 > ix.n {
		gy1 = ix.n
	}
	if gy0 >= gy1 {
		return nil
	}
	seen := make(map[Span]struct{})
	var out []Span
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		for _, s := range ix.bands[b] {
			// Clip the FULL span (not the bucket-clipped one) to the
			// window so the same rect yields the same Span from every
			// bucket that lists it; the dedup map collapses repeats.
			c := Span{X0: s.X0 - x0, X1: s.X1 - x0, Y0: s.Y0 - y0, Y1: s.Y1 - y0}
			if c.X0 < 0 {
				c.X0 = 0
			}
			if c.Y0 < 0 {
				c.Y0 = 0
			}
			if c.X1 > w {
				c.X1 = w
			}
			if c.Y1 > h {
				c.Y1 = h
			}
			if c.X0 >= c.X1 || c.Y0 >= c.Y1 {
				continue
			}
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y1 != b.Y1 {
			return a.Y1 < b.Y1
		}
		return a.X1 < b.X1
	})
	return out
}

// Window rasterizes the w×h window at origin (x0, y0) using the span
// index. Semantics are identical to RasterizeWindow on the indexed
// layout and grid size.
func (ix *WindowIndex) Window(x0, y0, w, h int) (*grid.Real, bool) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("layout: invalid window %dx%d", w, h))
	}
	m := grid.NewReal(w, h)
	occupied := false
	gy0, gy1 := y0, y0+h
	if gy0 < 0 {
		gy0 = 0
	}
	if gy1 > ix.n {
		gy1 = ix.n
	}
	if gy0 >= gy1 {
		return m, false
	}
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		lo, hi := b*ix.bandRows, (b+1)*ix.bandRows
		for _, s := range ix.bands[b] {
			// Clip the span's rows to this bucket so a span listed in
			// several buckets paints each of its pixels exactly once.
			if s.Y0 < lo {
				s.Y0 = lo
			}
			if s.Y1 > hi {
				s.Y1 = hi
			}
			if fillSpan(m, s, x0, y0) {
				occupied = true
			}
		}
	}
	return m, occupied
}
