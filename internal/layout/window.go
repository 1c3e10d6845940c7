package layout

import (
	"cmp"
	"fmt"
	"slices"

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
		X0: max(int(ceilDiv(float64(r.X), dx)), 0),
		X1: min(int(ceilDiv(float64(r.X+r.W), dx)), n),
		Y0: max(int(ceilDiv(float64(r.Y), dx)), 0),
		Y1: min(int(ceilDiv(float64(r.Y+r.H), dx)), n),
	}
	return s, s.X0 < s.X1 && s.Y0 < s.Y1
}

// fillSpan paints the intersection of span s (full-grid pixel
// coordinates) with the w×h window at origin (x0, y0) and reports
// whether any pixel was painted. Painting is idempotent (pixels go to 1),
// so overlapping spans compose safely.
func fillSpan(m *grid.Real, s pxSpan, x0, y0 int) bool {
	cx0, cx1 := max(s.X0-x0, 0), min(s.X1-x0, m.W)
	cy0, cy1 := max(s.Y0-y0, 0), min(s.Y1-y0, m.H)
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
	gy0, gy1 := max(y0, 0), min(y0+h, ix.n)
	if gy0 >= gy1 {
		return 0
	}
	total := 0
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		lo, hi := b*ix.bandRows, (b+1)*ix.bandRows
		for _, s := range ix.bands[b] {
			// Clip rows to the bucket (spans repeat across buckets),
			// then to the window, then columns to the window ∩ grid.
			s.Y0, s.Y1 = max(s.Y0, lo, y0), min(s.Y1, hi, y0+h)
			s.X0, s.X1 = max(s.X0, x0), min(s.X1, x0+w)
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
	gy0, gy1 := max(y0, 0), min(y0+h, ix.n)
	if gy0 >= gy1 {
		return nil
	}
	var out []Span
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		for _, s := range ix.bands[b] {
			// Clip the FULL span (not the bucket-clipped one) to the
			// window so the same rect yields the same Span from every
			// bucket that lists it; equal spans end up adjacent in the
			// sort and collapse there.
			c := Span{X0: max(s.X0-x0, 0), X1: min(s.X1-x0, w), Y0: max(s.Y0-y0, 0), Y1: min(s.Y1-y0, h)}
			if c.X0 < c.X1 && c.Y0 < c.Y1 {
				out = append(out, c)
			}
		}
	}
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.X0, b.X0),
			cmp.Compare(a.Y1, b.Y1), cmp.Compare(a.X1, b.X1))
	})
	return slices.Compact(out)
}

// Window rasterizes the w×h window at origin (x0, y0) using the span
// index. Semantics are identical to RasterizeWindow on the indexed
// layout and grid size.
func (ix *WindowIndex) Window(x0, y0, w, h int) (*grid.Real, bool) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("layout: invalid window %dx%d", w, h))
	}
	m := grid.NewReal(w, h)
	return m, ix.WindowInto(m, x0, y0)
}

// WindowInto is Window into a raster the caller owns: whatever dst held
// is cleared, then the dst.W×dst.H window at origin (x0, y0) is painted.
// A caller that walks window after window reuses one raster for all.
func (ix *WindowIndex) WindowInto(dst *grid.Real, x0, y0 int) bool {
	clear(dst.Data)
	gy0, gy1 := max(y0, 0), min(y0+dst.H, ix.n)
	if gy0 >= gy1 {
		return false
	}
	occupied := false
	for b := gy0 / ix.bandRows; b <= (gy1-1)/ix.bandRows; b++ {
		lo, hi := b*ix.bandRows, (b+1)*ix.bandRows
		for _, s := range ix.bands[b] {
			// Clip the span's rows to this bucket so a span listed in
			// several buckets paints each of its pixels exactly once.
			s.Y0, s.Y1 = max(s.Y0, lo), min(s.Y1, hi)
			if fillSpan(dst, s, x0, y0) {
				occupied = true
			}
		}
	}
	return occupied
}
