// Package layout provides target-pattern handling: a small text format for
// rectilinear layouts (GLP-style), center-sample rasterization onto
// simulation grids, and a deterministic generator that synthesizes an
// ICCAD-2013-like benchmark suite whose per-case polygon areas match the
// paper's Table 2 exactly.
//
// Every raster is painted from pixel spans by one painter, Paint. A
// window of a large layout is one span list: WindowIndex.WindowSpans,
// the only reader of the index's row bands, returns it clipped and
// window-local, and Window, Occupancy and the tiled flow's rasterize
// and cache key all start from that list.
package layout

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"cfaopc/internal/grid"
)

// Rect is an axis-aligned rectangle in integer nanometers: [X, X+W) ×
// [Y, Y+H) with the origin at the tile's top-left corner.
type Rect struct{ X, Y, W, H int }

// Area returns the rectangle area in nm².
func (r Rect) Area() int { return r.W * r.H }

// Layout is one target tile: a set of foreground rectangles. Rectangles
// may touch (to build L/T shapes) but are assumed not to overlap, so Area
// is their sum.
type Layout struct {
	Name   string
	TileNM int
	Rects  []Rect
}

// Area returns the total polygon area in nm².
func (l *Layout) Area() int {
	a := 0
	for _, r := range l.Rects {
		a += r.Area()
	}
	return a
}

// Validate checks rectangles are positive-sized, inside the tile, and
// mutually non-overlapping. A sweep decides in O(n log n) whether
// anything fails; only then does the pair loop run, to name the first
// failure in index order.
func (l *Layout) Validate() error {
	if l.TileNM <= 0 {
		return fmt.Errorf("layout %q: non-positive tile size %d", l.Name, l.TileNM)
	}
	if clean(l.Rects, l.TileNM) {
		return nil
	}
	for i, r := range l.Rects {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("layout %q: rect %d has non-positive size", l.Name, i)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > l.TileNM || r.Y+r.H > l.TileNM {
			return fmt.Errorf("layout %q: rect %d out of tile bounds", l.Name, i)
		}
		for j := i + 1; j < len(l.Rects); j++ {
			s := l.Rects[j]
			if r.X < s.X+s.W && s.X < r.X+r.W && r.Y < s.Y+s.H && s.Y < r.Y+r.H {
				return fmt.Errorf("layout %q: rects %d and %d overlap", l.Name, i, j)
			}
		}
	}
	return nil
}

// clean reports whether every rect is positive-sized, inside the tile
// and overlaps no other. The overlap test sweeps x, closing a rect at
// X+W before opening those at X (touching is not overlap). Fenwick trees
// over the y edges count the open rects' bottoms and tops: an opening
// [y0, y1) overlaps as many as have a bottom below y1, less those whose
// top is at or below y0.
func clean(rects []Rect, tile int) bool {
	ys := make([]int, 0, 2*len(rects))
	for _, r := range rects {
		if r.W <= 0 || r.H <= 0 || r.X < 0 || r.Y < 0 || r.X+r.W > tile || r.Y+r.H > tile {
			return false
		}
		ys = append(ys, r.Y, r.Y+r.H)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	at := func(y int) int { i, _ := slices.BinarySearch(ys, y); return i }
	bottoms, tops := make(fenwick, len(ys)+1), make(fenwick, len(ys)+1)
	opens, closes := slices.Clone(rects), slices.Clone(rects)
	slices.SortFunc(opens, func(a, b Rect) int { return a.X - b.X })
	slices.SortFunc(closes, func(a, b Rect) int { return a.X + a.W - b.X - b.W })
	for _, r := range opens {
		for ; len(closes) > 0 && closes[0].X+closes[0].W <= r.X; closes = closes[1:] {
			bottoms.add(at(closes[0].Y), -1)
			tops.add(at(closes[0].Y+closes[0].H), -1)
		}
		y0, y1 := at(r.Y), at(r.Y+r.H)
		if bottoms.below(y1) > tops.below(y0+1) {
			return false
		}
		bottoms.add(y0, 1)
		tops.add(y1, 1)
	}
	return true
}

// fenwick is a binary indexed tree of counts over compressed coordinates.
type fenwick []int

func (f fenwick) add(i, d int) {
	for i++; i < len(f); i += i & -i {
		f[i] += d
	}
}

// below sums the counts at indices < i.
func (f fenwick) below(i int) int {
	n := 0
	for ; i > 0; i -= i & -i {
		n += f[i]
	}
	return n
}

// Rasterize samples the layout onto an n×n grid covering the full tile:
// a pixel is foreground when its center lies inside a rectangle (centers
// at (i+0.5)·dx ∈ [X, X+W)). At 1 nm/px this reproduces the polygon area
// exactly. WindowIndex produces any sub-window of this grid without
// allocating it.
func (l *Layout) Rasterize(n int) *grid.Real {
	if n <= 0 {
		panic(fmt.Sprintf("layout: invalid grid size %d", n))
	}
	var spans []Span
	for _, r := range l.Rects {
		if s, ok := l.span(r, n); ok {
			spans = append(spans, s)
		}
	}
	m := grid.NewReal(n, n)
	Paint(m, spans)
	return m
}

// ceilDiv returns the smallest integer i with (i+0.5)·dx ≥ v, i.e. the
// first pixel whose center is at or beyond coordinate v.
func ceilDiv(v, dx float64) float64 {
	i := (v/dx - 0.5)
	n := float64(int(i))
	for n < i {
		n++
	}
	return n
}

// Write emits the layout in the text format read by Parse:
//
//	# optional comments
//	NAME case1
//	TILE 2048
//	RECT x y w h
func (l *Layout) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# cfaopc layout, area=%d nm2\n", l.Area())
	if l.Name != "" {
		fmt.Fprintf(bw, "NAME %s\n", l.Name)
	}
	fmt.Fprintf(bw, "TILE %d\n", l.TileNM)
	for _, r := range l.Rects {
		fmt.Fprintf(bw, "RECT %d %d %d %d\n", r.X, r.Y, r.W, r.H)
	}
	return bw.Flush()
}

// Parse reads the layout text format produced by Write. Unknown directives
// are an error; blank lines and # comments are skipped.
func Parse(r io.Reader) (*Layout, error) {
	l := &Layout{TileNM: 2048}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "NAME":
			if len(fields) != 2 {
				return nil, fmt.Errorf("layout: line %d: NAME needs one argument", lineNo)
			}
			l.Name = fields[1]
		case "TILE":
			if len(fields) != 2 {
				return nil, fmt.Errorf("layout: line %d: TILE needs one argument", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &l.TileNM); err != nil {
				return nil, fmt.Errorf("layout: line %d: bad TILE value %q", lineNo, fields[1])
			}
		case "RECT":
			if len(fields) != 5 {
				return nil, fmt.Errorf("layout: line %d: RECT needs four arguments", lineNo)
			}
			var rc Rect
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d %d",
				&rc.X, &rc.Y, &rc.W, &rc.H); err != nil {
				return nil, fmt.Errorf("layout: line %d: bad RECT values", lineNo)
			}
			l.Rects = append(l.Rects, rc)
		default:
			return nil, fmt.Errorf("layout: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
