// Package fracture converts optimized masks into writer shot lists: the
// traditional VSB path (Manhattanization followed by minimum rectangle
// partition) and the paper's CircleRule (Algorithm 1), which tessellates
// curvilinear shapes with overlapping variable-radius circles for the
// circular e-beam writer.
package fracture

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
)

// Manhattanize snaps a (curvilinear) binary mask to a coarser rectilinear
// grid of blockPx×blockPx pixel blocks by majority vote, the mask data
// preparation step that precedes VSB fracturing. blockPx = 1 returns a
// binarized copy. Non-manifold corners are removed afterwards so the
// result is always partitionable.
func Manhattanize(m *grid.Real, blockPx int) *grid.Real {
	if blockPx < 1 {
		panic(fmt.Sprintf("fracture: invalid block size %d", blockPx))
	}
	out := m.Binarize(0.5)
	if blockPx > 1 {
		for by := 0; by < m.H; by += blockPx {
			for bx := 0; bx < m.W; bx += blockPx {
				cnt, tot := 0, 0
				for y := by; y < by+blockPx && y < m.H; y++ {
					for x := bx; x < bx+blockPx && x < m.W; x++ {
						tot++
						if m.Data[y*m.W+x] > 0.5 {
							cnt++
						}
					}
				}
				v := 0.0
				if 2*cnt >= tot {
					v = 1
				}
				for y := by; y < by+blockPx && y < m.H; y++ {
					for x := bx; x < bx+blockPx && x < m.W; x++ {
						out.Data[y*m.W+x] = v
					}
				}
			}
		}
	}
	geom.RemoveCheckerboards(out)
	return out
}

// RectShots Manhattanizes the mask on a blockPx grid and fractures it into
// the minimum set of axis-aligned rectangles — the VSB shot list the paper
// compares against (Figure 1a).
func RectShots(m *grid.Real, blockPx int) []geom.Rect {
	return geom.PartitionRects(Manhattanize(m, blockPx))
}

// CircleRuleConfig parameterizes Algorithm 1. All lengths are in pixels of
// the mask grid.
type CircleRuleConfig struct {
	SampleDist     int     // m: skeleton steps between consecutive circles
	RMin, RMax     float64 // radius bounds per shot
	CoverThreshold float64 // I: stop growing when |C∩A|/|C| drops below
	// DisableRepair turns off the post-skeleton coverage-repair pass,
	// leaving exactly the circles Algorithm 1's pseudocode places. Used by
	// the ablation benches; wide regions then stay under-covered.
	DisableRepair bool
}

// RMinNM and RMaxNM are the paper's mask rule for the circular writer:
// every shot radius lies in [RMinNM, RMaxNM] nm. CircleRule and CircleOpt
// place shots inside it, and every MRC check of a shot list holds the
// list to it.
const (
	RMinNM = 12
	RMaxNM = 76
)

// DefaultCircleRuleConfig returns the paper's settings (m = 32 nm, R ∈
// [RMinNM, RMaxNM], I = 0.9) converted to pixels for the given resolution.
func DefaultCircleRuleConfig(dxNM float64) CircleRuleConfig {
	return CircleRuleConfig{
		SampleDist:     max(1, int(32/dxNM+0.5)),
		RMin:           RMinNM / dxNM,
		RMax:           RMaxNM / dxNM,
		CoverThreshold: 0.9,
	}
}

func (c CircleRuleConfig) validate() {
	if c.SampleDist < 1 || c.RMin <= 0 || c.RMax < c.RMin || c.CoverThreshold <= 0 || c.CoverThreshold > 1 {
		panic(fmt.Sprintf("fracture: invalid CircleRule config %+v", c))
	}
}

// CircleRule fractures a binary mask into overlapping circles following
// Algorithm 1: split the mask into 8-connected regions, skeletonize each,
// DFS-walk the skeleton sampling a center every SampleDist steps, and grow
// each circle's radius from RMin until the cover rate |C∩A|/|C| drops
// below CoverThreshold (taking RMax when it never drops — the interior
// case the paper's pseudocode leaves implicit, without which fat regions
// would not be covered).
//
// The DFS start point is the first skeleton pixel in scan order rather
// than a random one, making the fracturing deterministic.
//
// Only the labelling pass looks at the whole window. Every region is then
// cropped to its bounding box and thinned, walked and repaired there, so
// the cost follows the shapes, not the window they sit in.
func CircleRule(mask *grid.Real, cfg CircleRuleConfig) []geom.Circle {
	cfg.validate()
	f := fracturers.Get().(*fracturer)
	f.cfg, f.ladder, f.shots = cfg, geom.LadderFor(cfg.RMin, cfg.RMax), f.shots[:0]
	f.labels.Relabel(mask, true)
	for id := 1; id <= f.labels.N; id++ {
		f.crop(id)
		first := len(f.shots)
		if f.walkSkeleton() && !cfg.DisableRepair {
			f.repairCoverage(first)
		}
	}
	// Callers keep the list (cache entries, journal records); the
	// fracturer's own goes back to the pool with it.
	shots := append([]geom.Circle(nil), f.shots...)
	fracturers.Put(f)
	return shots
}

// fracturers holds idle fracturers, so a caller that fractures window
// after window — a tile lane — allocates only the list it is handed. A
// fracturer keeps buffers sized by the largest window and region it has
// seen until the collector empties the pool; one that panics mid-call is
// not put back.
var fracturers = sync.Pool{New: func() any { return new(fracturer) }}

// fracturer is the state of one CircleRule call: the labelling of the
// window, the shot list so far, the current region cropped out of the
// window, and buffers that are reused from region to region and, through
// the pool, from call to call.
type fracturer struct {
	cfg    CircleRuleConfig
	ladder *geom.CoverLadder
	labels geom.Labels
	shots  []geom.Circle

	// The crop: the region's bounding box plus a one-pixel background
	// ring, w×h with crop pixel (0, 0) at window pixel (ox, oy). The ring
	// is there on every side, also where the box touches the window
	// border; valid is the part of the crop that lies inside the window.
	w, h, ox, oy int
	valid        geom.Rect
	region       []uint8 // 1 on the region's pixels

	work  []uint8   // skeleton during the walk, then the uncovered pixels
	depth []float64 // squared depth of the uncovered pixels
	stack []walkItem
	thin  geom.Thinner
	edt   geom.EDT
}

type walkItem struct{ idx, cnt int32 }

// crop copies component id of the labelling into the region raster.
func (f *fracturer) crop(id int) {
	labels := &f.labels
	b := labels.Bounds[id]
	f.w, f.h, f.ox, f.oy = b.W+2, b.H+2, b.X-1, b.Y-1
	x0, y0 := max(0, -f.ox), max(0, -f.oy)
	f.valid = geom.Rect{X: x0, Y: y0,
		W: min(f.w, labels.W-f.ox) - x0, H: min(f.h, labels.H-f.oy) - y0}
	f.region = resize(f.region, f.w*f.h)
	clear(f.region)
	for y := 0; y < b.H; y++ {
		row := f.region[(y+1)*f.w+1:]
		for x, v := range labels.Label[(b.Y+y)*labels.W+b.X:][:b.W] {
			if int(v) == id {
				row[x] = 1
			}
		}
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// walkSkeleton thins the region and runs the DFS sampling (Algorithm 1
// lines 9–23) over its skeleton, appending to f.shots. It reports whether
// there was a skeleton to walk: thinning erases a 2×2 block altogether.
func (f *fracturer) walkSkeleton() bool {
	f.work = resize(f.work, len(f.region))
	skel := f.work
	copy(skel, f.region)
	f.thin.Thin(skel, f.w, f.h)
	start := bytes.IndexByte(skel, 1)
	if start < 0 {
		return false
	}
	const visited = 2
	w := f.w
	neigh := [8]int{1, -1, w, -w, w + 1, -w + 1, w - 1, -w - 1}
	stack := append(f.stack[:0], walkItem{idx: int32(start)})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := int(it.idx)
		if skel[idx] == visited {
			continue
		}
		skel[idx] = visited
		// Skeleton pixels never lie on the background ring, so every
		// neighbour is inside the crop.
		for _, d := range neigh {
			if skel[idx+d] == 1 {
				stack = append(stack, walkItem{int32(idx + d), it.cnt + 1})
			}
		}
		if int(it.cnt)%f.cfg.SampleDist == 0 {
			f.shots = append(f.shots, f.selectRadius(idx%w, idx/w))
		}
	}
	f.stack = stack
	return true
}

// selectRadius implements the circle radius selection (lines 19–23) at
// crop pixel (x, y): grow r in half-pixel steps from RMin (the paper grows
// in 1 nm steps at 1 nm/px; half-pixel steps keep a comparable granularity
// relative to the feature size on coarser grids); emit the first circle
// whose cover rate drops below the threshold, or an RMax circle if cover
// never drops. Walking the ladder's rings outward costs one pass over the
// final disk, where probing geom.CoverRate at every step costs one pass
// per step.
func (f *fracturer) selectRadius(x, y int) geom.Circle {
	c := geom.Circle{X: float64(x + f.ox), Y: float64(y + f.oy), R: f.cfg.RMin}
	inside := 0
	for j := 0; j < f.ladder.Steps(); j++ {
		inside += f.ladder.Ring(j, f.region, f.w, f.h, x, y)
		if f.ladder.Rate(j, inside) < f.cfg.CoverThreshold {
			// The paper emits the first circle past the threshold; at 1
			// nm/px that overshoots the mask boundary by ≤1 nm, but at
			// coarser grids the overshoot bloats the union (many
			// overlapping spills), so emit the last compliant radius
			// instead — the same circle in the paper's resolution limit.
			return c
		}
		c.R = f.ladder.Radius(j)
	}
	return c // interior point: cover never dropped
}

// repairCoverage adds circles for mask areas the skeleton walk left bare,
// given the region's shots so far, f.shots[first:]. Zhang–Suen thinning
// collapses wide blobs (anything broader than 2·RMax, like the 320 nm
// block of case 10) toward a point, so skeleton sampling alone
// under-covers them. Greedily place a circle at the deepest uncovered
// pixel — radius chosen by the same cover-rate rule as Algorithm 1 —
// until no uncovered pocket can fit a legal RMin circle.
func (f *fracturer) repairCoverage(first int) {
	uncovered := f.work
	copy(uncovered, f.region)
	for _, c := range f.shots[first:] {
		f.erase(uncovered, c)
	}
	box := geom.Rect{X: 1, Y: 1, W: f.w - 2, H: f.h - 2}
	for guard := 0; guard < 4096; guard++ {
		box = f.boundsIn(uncovered, box)
		if box.W == 0 {
			break
		}
		// Depth of each uncovered pixel = distance to the nearest pixel
		// that is covered or outside the mask. Every such pixel beyond
		// the ring around the uncovered box is farther away than one on
		// the ring — but only the part of the ring that is inside the
		// window exists: where a window border cuts the shape there is
		// nothing beyond it to be near to.
		x0, y0 := max(box.X-1, f.valid.X), max(box.Y-1, f.valid.Y)
		x1 := min(box.X+box.W, f.valid.X+f.valid.W-1)
		y1 := min(box.Y+box.H, f.valid.Y+f.valid.H-1)
		dw, dh := x1-x0+1, y1-y0+1
		f.depth = resize(f.depth, dw*dh)
		for y := 0; y < dh; y++ {
			for x, u := range uncovered[(y0+y)*f.w+x0:][:dw] {
				f.depth[y*dw+x] = float64(u) * geom.Unreached
			}
		}
		// The column half bounds every depth from above, so the row half
		// runs only on rows whose bound beats the best depth so far and
		// could host an RMin circle: a skipped row holds neither a strict
		// new maximum nor a legal circle, and the pixel chosen — the
		// first strict maximum in row-major order — and the stop are the
		// full transform's.
		f.edt.Columns(f.depth, dw, dh)
		best, bx, by := 0.0, -1, -1
		for y := 0; y < dh; y++ {
			row := f.depth[y*dw : (y+1)*dw]
			bound := 0.0
			for _, v := range row {
				if v > bound {
					bound = v
				}
			}
			if bound = depthOf(bound); bound <= best || math.Sqrt(bound) < f.cfg.RMin {
				continue
			}
			f.edt.Row(row)
			for x, v := range row {
				// Covered and outside pixels are the seeds, at depth 0.
				if v := depthOf(v); v > best {
					best, bx, by = v, x0+x, y0+y
				}
			}
		}
		if math.Sqrt(best) < f.cfg.RMin {
			break // remaining slivers cannot host a legal circle
		}
		c := f.selectRadius(bx, by)
		f.shots = append(f.shots, c)
		f.erase(uncovered, c)
	}
}

// depthOf maps a squared depth of geom.Unreached/2 and above — a window
// that is all uncovered — to +Inf.
func depthOf(v float64) float64 {
	if v >= geom.Unreached/2 {
		return math.Inf(1)
	}
	return v
}

// boundsIn returns the bounding box of the nonzero pixels of pix inside
// box, with W == 0 when there are none.
func (f *fracturer) boundsIn(pix []uint8, box geom.Rect) geom.Rect {
	x0, x1, y0, y1 := f.w, -1, f.h, -1
	for y := box.Y; y < box.Y+box.H; y++ {
		row := pix[y*f.w+box.X:][:box.W]
		l := bytes.IndexByte(row, 1)
		if l < 0 {
			continue
		}
		x0 = min(x0, box.X+l)
		x1 = max(x1, box.X+bytes.LastIndexByte(row, 1))
		y0 = min(y0, y)
		y1 = y
	}
	if x1 < 0 {
		return geom.Rect{}
	}
	return geom.Rect{X: x0, Y: y0, W: x1 - x0 + 1, H: y1 - y0 + 1}
}

// erase clears the pixels of one circle (window coordinates) from a crop
// raster, with the pixel predicate of geom.RasterizeCircles.
func (f *fracturer) erase(pix []uint8, c geom.Circle) {
	c.X, c.Y = c.X-float64(f.ox), c.Y-float64(f.oy)
	lo, hi := c.Rows(0, f.h)
	for y := lo; y < hi; y++ {
		x0, x1 := c.Span(y, f.w)
		clear(pix[y*f.w+x0 : y*f.w+x1])
	}
}
