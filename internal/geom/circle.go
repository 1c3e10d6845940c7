package geom

import (
	"sort"
	"sync"

	"cfaopc/internal/grid"
)

// Circle is one circular e-beam shot in pixel coordinates: center (X, Y)
// and radius R, all in pixels (possibly fractional during optimization).
type Circle struct{ X, Y, R float64 }

// RasterizeCircles paints the union of circles onto a fresh w×h binary
// grid: a pixel belongs to the mask when its coordinate lies within R of a
// circle center — the "recover a full mask by unioning all circles"
// operation of the paper.
func RasterizeCircles(w, h int, cs []Circle) *grid.Real {
	m := grid.NewReal(w, h)
	RasterizeCirclesBand(m, 0, cs)
	return m
}

// RasterizeCirclesBand adds the union of circles to band, the rows
// [y0, y0+band.H) of a band.W-column grid: band pixel (x, y-y0) is set
// when grid pixel (x, y) lies within R of a circle center. Pixels already
// set stay set, so a caller that reuses one band for successive row
// ranges clears it in between; painted band after band, top to bottom,
// the rows are RasterizeCircles' byte for byte at one band of memory.
// Circles whose bounding box misses the band are skipped.
func RasterizeCirclesBand(band *grid.Real, y0 int, cs []Circle) {
	w, h := band.W, band.H
	for _, c := range cs {
		r := c.R
		if r <= 0 {
			continue
		}
		bx0 := int(c.X - r - 1)
		bx1 := int(c.X + r + 1)
		by0 := int(c.Y - r - 1)
		by1 := int(c.Y + r + 1)
		if bx0 < 0 {
			bx0 = 0
		}
		if bx1 >= w {
			bx1 = w - 1
		}
		if by0 < y0 {
			by0 = y0
		}
		if by1 >= y0+h {
			by1 = y0 + h - 1
		}
		r2 := r * r
		for y := by0; y <= by1; y++ {
			dy := float64(y) - c.Y
			row := band.Data[(y-y0)*w:]
			for x := bx0; x <= bx1; x++ {
				dx := float64(x) - c.X
				if dx*dx+dy*dy <= r2 {
					row[x] = 1
				}
			}
		}
	}
}

// subSamples are the 2×2 sub-pixel sample positions of CoverRate.
var subSamples = [4][2]float64{{-0.25, -0.25}, {0.25, -0.25}, {-0.25, 0.25}, {0.25, 0.25}}

// CoverRate returns |C ∩ A| / |C| — the fraction of the circle's area
// that falls on foreground of region (line 20 of Algorithm 1). Pixels are
// supersampled 2×2 so the rate varies smoothly with the radius even on
// coarse grids, where whole-pixel counting makes the cover-vs-radius curve
// so steppy that radius selection stalls at R_min. Circles with no area on
// the grid return 0.
func CoverRate(c Circle, region *grid.Real) float64 {
	if c.R <= 0 {
		return 0
	}
	total, inside := 0, 0
	x0 := int(c.X - c.R - 1)
	x1 := int(c.X + c.R + 1)
	y0 := int(c.Y - c.R - 1)
	y1 := int(c.Y + c.R + 1)
	r2 := c.R * c.R
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, o := range subSamples {
				dx := float64(x) + o[0] - c.X
				dy := float64(y) + o[1] - c.Y
				if dx*dx+dy*dy > r2 {
					continue
				}
				total++
				if fg(region, x, y) {
					inside++
				}
			}
		}
	}
	return coverRatio(inside, total)
}

func coverRatio(inside, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}

// CoverLadder answers CoverRate for one centre at every radius of
// Algorithm 1's ladder — RMin, RMin+0.5, … clamped to RMax — in one pass
// over the final disk instead of one disk scan per radius. Every
// sub-sample offset is filed under the first ladder radius whose circle
// contains it (the predicate dx²+dy² ≤ r² is monotone in r, and for
// integer centres dx and dy do not depend on the centre), so the
// sub-samples of circle j are rings 0..j, their number is a constant of
// the ladder, and the foreground ones are counted ring by ring.
type CoverLadder struct {
	radii  []float64
	rings  [][]ringPixel
	totals []int // sub-samples inside radii[j]: the |C| of CoverRate
	reach  []int // largest |dx|, |dy| of rings 0..j
}

// ringPixel is a pixel offset from the centre with the number of its
// sub-samples that first fall inside the circle at this ring's radius.
type ringPixel struct{ dx, dy, n int16 }

// ladderRadii lists the radii selectRadius tries, with the arithmetic the
// original loop used (a running sum, not rMin + j/2) so that every radius
// is the same float64.
func ladderRadii(rMin, rMax float64) []float64 {
	var radii []float64
	for r := rMin; ; r += 0.5 {
		if r > rMax {
			r = rMax
		}
		radii = append(radii, r)
		if r == rMax {
			return radii
		}
	}
}

func newCoverLadder(rMin, rMax float64) *CoverLadder {
	l := &CoverLadder{radii: ladderRadii(rMin, rMax)}
	steps := len(l.radii)
	r2 := make([]float64, steps)
	for j, r := range l.radii {
		r2[j] = r * r
	}
	l.rings = make([][]ringPixel, steps)
	l.totals = make([]int, steps)
	l.reach = make([]int, steps)
	lim := int(rMax + 1)
	for y := -lim; y <= lim; y++ {
		for x := -lim; x <= lim; x++ {
			for _, o := range subSamples {
				dx := float64(x) + o[0]
				dy := float64(y) + o[1]
				d2 := dx*dx + dy*dy
				j := sort.Search(steps, func(j int) bool { return d2 <= r2[j] })
				if j == steps {
					continue
				}
				l.totals[j]++
				if ring := l.rings[j]; len(ring) > 0 && ring[len(ring)-1].dx == int16(x) && ring[len(ring)-1].dy == int16(y) {
					ring[len(ring)-1].n++
					continue
				}
				l.rings[j] = append(l.rings[j], ringPixel{int16(x), int16(y), 1})
				l.reach[j] = max(l.reach[j], max(x, -x), max(y, -y))
			}
		}
	}
	for j := 1; j < steps; j++ {
		l.totals[j] += l.totals[j-1]
		l.reach[j] = max(l.reach[j], l.reach[j-1])
	}
	return l
}

// ladders keeps the few ladders a process uses: one per (RMin, RMax),
// which is one per resolution in every flow. A table costs about a
// millisecond to build, so it is built on first use, never at start-up.
var ladders struct {
	sync.Mutex
	byBounds map[[2]float64]*CoverLadder
}

// LadderFor returns the shared, read-only ladder for the radius bounds.
func LadderFor(rMin, rMax float64) *CoverLadder {
	key := [2]float64{rMin, rMax}
	ladders.Lock()
	defer ladders.Unlock()
	l := ladders.byBounds[key]
	if l == nil {
		// Bounded: callers that sweep radii (ablations, fuzzers) must
		// not grow the table without limit.
		if len(ladders.byBounds) >= 16 {
			ladders.byBounds = nil
		}
		if ladders.byBounds == nil {
			ladders.byBounds = make(map[[2]float64]*CoverLadder)
		}
		l = newCoverLadder(rMin, rMax)
		ladders.byBounds[key] = l
	}
	return l
}

// Steps is the number of ladder radii; Radius(Steps()-1) is RMax.
func (l *CoverLadder) Steps() int { return len(l.radii) }

// Radius is the j-th ladder radius.
func (l *CoverLadder) Radius(j int) float64 { return l.radii[j] }

// Ring counts the foreground sub-samples that lie inside the circle of
// radius Radius(j) around pixel (cx, cy) but outside the one before it,
// on a w×h raster of 0/1 bytes; off-raster samples are background. The
// running sum over rings 0..j is CoverRate's |C ∩ A|.
func (l *CoverLadder) Ring(j int, pix []uint8, w, h, cx, cy int) int {
	inside := 0
	if r := l.reach[j]; cx >= r && cy >= r && cx+r < w && cy+r < h {
		c := cy*w + cx
		for _, p := range l.rings[j] {
			inside += int(p.n) * int(pix[c+int(p.dy)*w+int(p.dx)])
		}
		return inside
	}
	for _, p := range l.rings[j] {
		x, y := cx+int(p.dx), cy+int(p.dy)
		if x >= 0 && x < w && y >= 0 && y < h {
			inside += int(p.n) * int(pix[y*w+x])
		}
	}
	return inside
}

// Rate is the cover rate of the step-j circle given the sum of Ring over
// steps 0..j: the same two integers CoverRate divides.
func (l *CoverLadder) Rate(j, inside int) float64 { return coverRatio(inside, l.totals[j]) }
