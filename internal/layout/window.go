package layout

import (
	"cmp"
	"fmt"
	"slices"

	"cfaopc/internal/grid"
)

// Span is one rectangle's half-open pixel footprint [X0, X1) × [Y0, Y1),
// in the same pixel-center convention Rasterize uses. The index holds
// spans in full-grid coordinates; WindowSpans hands them out clipped and
// translated into window-local ones, the canonical geometry the window
// dedup cache hashes alongside the target raster: two windows over
// pixel-identical content produce identical span lists regardless of
// where they sit on the full grid.
type Span struct{ X0, X1, Y0, Y1 int }

// span computes r's pixel span on an n×n grid, clipped to the grid. Every
// raster and span list of the layout comes from this arithmetic, so a
// window can never drift from the full-grid raster by even one pixel. ok
// is false when the clipped span is empty.
func (l *Layout) span(r Rect, n int) (Span, bool) {
	dx := float64(l.TileNM) / float64(n)
	s := Span{
		X0: max(int(ceilDiv(float64(r.X), dx)), 0),
		X1: min(int(ceilDiv(float64(r.X+r.W), dx)), n),
		Y0: max(int(ceilDiv(float64(r.Y), dx)), 0),
		Y1: min(int(ceilDiv(float64(r.Y+r.H), dx)), n),
	}
	return s, s.X0 < s.X1 && s.Y0 < s.Y1
}

// Paint clears dst, sets every pixel of spans to 1 and reports whether
// it painted any. The spans must be non-empty and lie inside dst, as
// WindowSpans returns them; overlapping spans compose, since painting is
// idempotent.
func Paint(dst *grid.Real, spans []Span) bool {
	clear(dst.Data)
	for _, s := range spans {
		for y := s.Y0; y < s.Y1; y++ {
			row := dst.Data[y*dst.W+s.X0 : y*dst.W+s.X1]
			for x := range row {
				row[x] = 1
			}
		}
	}
	return len(spans) > 0
}

// indexBandRows is the row-bucket granularity of WindowIndex. Buckets
// much smaller than a typical tile row would only grow the index; much
// larger ones would scan rects far from the window.
const indexBandRows = 64

// WindowIndex rasterizes windows of one layout at a fixed grid size: every rect's pixel span is precomputed
// once and bucketed by horizontal row band, so rasterizing a window
// touches only the rects whose spans can overlap the window's rows —
// O(overlapping rects), not O(all rects). This is what lets the tiled
// flow stream windows instead of holding an O(n²) full-grid raster.
type WindowIndex struct {
	n        int
	bandRows int
	bands    [][]Span
	spans    int // total bucketed span entries, for memory accounting
}

// NewWindowIndex builds the row-bucketed span index for l on an n×n grid.
func NewWindowIndex(l *Layout, n int) *WindowIndex {
	if n <= 0 {
		panic(fmt.Sprintf("layout: invalid grid size %d", n))
	}
	ix := &WindowIndex{n: n, bandRows: indexBandRows}
	nb := (n + ix.bandRows - 1) / ix.bandRows
	ix.bands = make([][]Span, nb)
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

// Bytes estimates the index's resident size, for memory accounting.
func (ix *WindowIndex) Bytes() int64 {
	const spanBytes = 4 * 8 // four ints
	return int64(ix.spans)*spanBytes + int64(len(ix.bands))*24
}

// Occupancy returns the number of foreground pixels the w×h window at
// origin (x0, y0) would contain, without allocating the raster: the
// summed areas of its WindowSpans. For a validated layout (non-overlapping
// rects) the count is exact: the center-sample convention maps disjoint
// rects to disjoint pixel spans, so the sum never double-counts. It is
// zero if and only if Window reports unoccupied, and is what the
// benchmark's probes pick their densest window by.
func (ix *WindowIndex) Occupancy(x0, y0, w, h int) int {
	total := 0
	for _, s := range ix.WindowSpans(x0, y0, w, h) {
		total += (s.X1 - s.X0) * (s.Y1 - s.Y0)
	}
	return total
}

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

// Window rasterizes the w×h window at origin (x0, y0) from its
// WindowSpans. The result is byte-identical to extracting the same window
// out of Rasterize(n); the origin may be negative and the window may
// overhang the grid.
func (ix *WindowIndex) Window(x0, y0, w, h int) (*grid.Real, bool) {
	spans := ix.WindowSpans(x0, y0, w, h)
	m := grid.NewReal(w, h)
	return m, Paint(m, spans)
}
