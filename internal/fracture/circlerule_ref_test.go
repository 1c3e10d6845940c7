package fracture

import (
	"fmt"
	"math/rand"
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/gridkit"
	"cfaopc/internal/testkit/layoutkit"
)

// circleRuleRef is Algorithm 1 written the straightforward way, as
// CircleRule was before it learnt to follow the region instead of the
// window: every component becomes a full-window raster that is thinned by
// whole-grid sweeps, every radius step rescans its disk with
// geom.CoverRate, and every repair circle costs a full-window distance
// transform. It is the oracle: CircleRule must return the same shots, in
// the same order, to the last bit.
func circleRuleRef(mask *grid.Real, cfg CircleRuleConfig) []geom.Circle {
	cfg.validate()
	var shots []geom.Circle
	labels := geom.Components(mask, true)
	for id := 1; id <= labels.N; id++ {
		region := grid.NewReal(mask.W, mask.H)
		for i, v := range labels.Label {
			if int(v) == id {
				region.Data[i] = 1
			}
		}
		skel := skeletonRef(region)
		start := -1
		for i, v := range skel.Data {
			if v > 0.5 {
				start = i
				break
			}
		}
		if start < 0 {
			continue
		}
		regionShots := walkSkeletonRef(skel, region, geom.Pt{X: start % mask.W, Y: start / mask.W}, cfg)
		if !cfg.DisableRepair {
			regionShots = repairCoverageRef(region, regionShots, cfg)
		}
		shots = append(shots, regionShots...)
	}
	return shots
}

func repairCoverageRef(region *grid.Real, shots []geom.Circle, cfg CircleRuleConfig) []geom.Circle {
	covered := geom.RasterizeCircles(region.W, region.H, shots)
	for guard := 0; guard < 4096; guard++ {
		uncovered := grid.NewReal(region.W, region.H)
		anyUncovered := false
		for i := range region.Data {
			if region.Data[i] > 0.5 && covered.Data[i] <= 0.5 {
				uncovered.Data[i] = 1
				anyUncovered = true
			}
		}
		if !anyUncovered {
			break
		}
		// Depth of each uncovered pixel = distance to the nearest pixel
		// that is covered or outside the mask.
		complement := grid.NewReal(region.W, region.H)
		for i := range complement.Data {
			if uncovered.Data[i] <= 0.5 {
				complement.Data[i] = 1
			}
		}
		depth := geom.DistanceTransform(complement)
		best, bestIdx := 0.0, -1
		for i, v := range depth.Data {
			if uncovered.Data[i] > 0.5 && v > best {
				best = v
				bestIdx = i
			}
		}
		if bestIdx < 0 || best < cfg.RMin {
			break // remaining slivers cannot host a legal circle
		}
		p := geom.Pt{X: bestIdx % region.W, Y: bestIdx / region.W}
		c, ok := selectRadiusRef(p, region, cfg)
		if !ok {
			break
		}
		shots = append(shots, c)
		paintCircle(covered, c)
	}
	return shots
}

func walkSkeletonRef(skel, region *grid.Real, start geom.Pt, cfg CircleRuleConfig) []geom.Circle {
	w, h := skel.W, skel.H
	visited := make([]bool, w*h)
	type item struct {
		p   geom.Pt
		cnt int
	}
	stack := []item{{start, 0}}
	var shots []geom.Circle
	neigh := [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := it.p.Y*w + it.p.X
		if visited[idx] {
			continue
		}
		visited[idx] = true
		for _, d := range neigh {
			nx, ny := it.p.X+d[0], it.p.Y+d[1]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			ni := ny*w + nx
			if skel.Data[ni] > 0.5 && !visited[ni] {
				stack = append(stack, item{geom.Pt{X: nx, Y: ny}, it.cnt + 1})
			}
		}
		if it.cnt%cfg.SampleDist == 0 {
			if c, ok := selectRadiusRef(it.p, region, cfg); ok {
				shots = append(shots, c)
			}
		}
	}
	return shots
}

func selectRadiusRef(p geom.Pt, region *grid.Real, cfg CircleRuleConfig) (geom.Circle, bool) {
	prev := cfg.RMin
	for r := cfg.RMin; ; r += 0.5 {
		if r > cfg.RMax {
			r = cfg.RMax
		}
		c := geom.Circle{X: float64(p.X), Y: float64(p.Y), R: r}
		if geom.CoverRate(c, region) < cfg.CoverThreshold {
			c.R = prev
			return c, true
		}
		if r == cfg.RMax {
			return c, true // interior point: cover never dropped
		}
		prev = r
	}
}

// skeletonRef is whole-grid-sweep Zhang–Suen thinning (the same oracle
// package geom tests its work-list thinning against).
func skeletonRef(m *grid.Real) *grid.Real {
	s := m.Binarize(0.5)
	for {
		n0 := skeletonSubpassRef(s, 0)
		n1 := skeletonSubpassRef(s, 1)
		if n0+n1 == 0 {
			return s
		}
	}
}

func skeletonSubpassRef(s *grid.Real, pass int) int {
	w, h := s.W, s.H
	at := func(x, y int) int {
		if x < 0 || x >= w || y < 0 || y >= h || s.Data[y*w+x] <= 0.5 {
			return 0
		}
		return 1
	}
	var toClear []int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if at(x, y) == 0 {
				continue
			}
			// Neighbours P2..P9 clockwise from north.
			p := [8]int{at(x, y-1), at(x+1, y-1), at(x+1, y), at(x+1, y+1),
				at(x, y+1), at(x-1, y+1), at(x-1, y), at(x-1, y-1)}
			b := 0
			for _, v := range p {
				b += v
			}
			if b < 2 || b > 6 {
				continue
			}
			// A(P1): number of 0→1 transitions in the circular sequence.
			a := 0
			for i := 0; i < 8; i++ {
				if p[i] == 0 && p[(i+1)%8] == 1 {
					a++
				}
			}
			if a != 1 {
				continue
			}
			if pass == 0 {
				if p[0]*p[2]*p[4] != 0 || p[2]*p[4]*p[6] != 0 {
					continue
				}
			} else {
				if p[0]*p[2]*p[6] != 0 || p[0]*p[4]*p[6] != 0 {
					continue
				}
			}
			toClear = append(toClear, y*w+x)
		}
	}
	for _, i := range toClear {
		s.Data[i] = 0
	}
	return len(toClear)
}

// requireMatchesRef fails unless CircleRule and the reference agree on
// every shot — X, Y and R compared as float64, order included.
func requireMatchesRef(t *testing.T, what string, mask *grid.Real, cfg CircleRuleConfig) []geom.Circle {
	t.Helper()
	got, want := CircleRule(mask, cfg), circleRuleRef(mask, cfg)
	if len(got) != len(want) {
		t.Fatalf("%s (%d×%d, %+v): %d shots, reference %d", what, mask.W, mask.H, cfg, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (%d×%d, %+v): shot %d of %d is %+v, reference %+v",
				what, mask.W, mask.H, cfg, i, len(want), got[i], want[i])
		}
	}
	return got
}

// cutWindow copies the w×h window at (x0, y0) out of a chip raster.
func cutWindow(chip *grid.Real, x0, y0, w, h int) *grid.Real {
	m := grid.NewReal(w, h)
	for y := 0; y < h; y++ {
		copy(m.Data[y*w:(y+1)*w], chip.Data[(y0+y)*chip.W+x0:][:w])
	}
	return m
}

func TestCircleRuleMatchesRefOnSuite(t *testing.T) {
	// The reference costs a window-sized pass per region, radius step and
	// repair circle; under -short (the race job) one coarse grid has to do.
	grids, variantsAt := []int{128, 256, 512}, 256
	if testing.Short() {
		grids, variantsAt = []int{128}, 128
	}
	for _, l := range layout.GenerateSuite() {
		for _, n := range grids {
			mask := l.Rasterize(n)
			cfg := DefaultCircleRuleConfig(float64(l.TileNM) / float64(n))
			shots := requireMatchesRef(t, l.Name, mask, cfg)
			if n != variantsAt {
				continue
			}
			cfg.DisableRepair = true
			requireMatchesRef(t, l.Name+" without repair", mask, cfg)
			cfg.DisableRepair = false
			for _, m := range []int{1, 4, 16} {
				cfg.SampleDist = m
				requireMatchesRef(t, l.Name, mask, cfg)
			}
			// The union of the shots is the curvilinear mask CircleOpt
			// hands back in: round shapes, not bars.
			curvy := geom.RasterizeCircles(n, n, shots)
			requireMatchesRef(t, l.Name+" re-fractured", curvy, DefaultCircleRuleConfig(float64(l.TileNM)/float64(n)))
		}
	}
}

func TestCircleRuleMatchesRefOnRandomLayouts(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 128
	}
	for seed := int64(1); seed <= 8; seed++ {
		l := layoutkit.GenerateRandom(seed, layoutkit.RandomConfig{})
		requireMatchesRef(t, l.Name, l.Rasterize(n), DefaultCircleRuleConfig(float64(l.TileNM)/float64(n)))
	}
}

// Halo windows slice shapes at their borders. A shape cut by the window
// edge has nothing beyond the edge to be near to, which is what a crop
// with an unclipped margin gets wrong: it repairs such shapes with a
// different number of circles.
func TestCircleRuleMatchesRefOnCutWindows(t *testing.T) {
	const n, win = 512, 192
	cut, layouts := 0, layout.GenerateSuite()[:4]
	if testing.Short() {
		layouts = layouts[:1]
	}
	for _, l := range layouts {
		chip := l.Rasterize(n)
		cfg := DefaultCircleRuleConfig(float64(l.TileNM) / float64(n))
		for _, y0 := range []int{0, 100, 171, 250, n - win} {
			for _, x0 := range []int{0, 90, 163, 240, n - win} {
				w := cutWindow(chip, x0, y0, win, win)
				for x := 0; x < win; x++ {
					if w.Data[x] > 0.5 || w.Data[(win-1)*win+x] > 0.5 ||
						w.Data[x*win] > 0.5 || w.Data[x*win+win-1] > 0.5 {
						cut++
						break
					}
				}
				requireMatchesRef(t, fmt.Sprintf("%s window (%d,%d)", l.Name, x0, y0), w, cfg)
			}
		}
	}
	if cut < 5*len(layouts) {
		t.Fatalf("only %d windows cut a shape; the offsets no longer test the border", cut)
	}
	// Fat shapes cut on each border and in each corner: the deepest
	// uncovered pixel of a cut blob lies on the window edge.
	for _, r := range []geom.Rect{
		{X: 0, Y: 40, W: 50, H: 60}, {X: 60, Y: 0, W: 70, H: 45}, {X: 50, Y: 40, W: 46, H: 30}, {X: 20, Y: 70, W: 60, H: 26},
		{X: 0, Y: 0, W: 40, H: 40}, {X: 56, Y: 0, W: 40, H: 50}, {X: 0, Y: 50, W: 45, H: 46}, {X: 50, Y: 52, W: 46, H: 44},
		{X: 0, Y: 30, W: 96, H: 30}, {X: 30, Y: 0, W: 30, H: 96},
	} {
		m := layoutkit.RasterizeRects(96, 96, []geom.Rect{r})
		cfg := CircleRuleConfig{SampleDist: 8, RMin: 3, RMax: 9, CoverThreshold: 0.9}
		if got := requireMatchesRef(t, fmt.Sprintf("cut block %+v", r), m, cfg); len(got) == 0 {
			t.Fatalf("cut block %+v: no shots", r)
		}
	}
}

func TestCircleRuleMatchesRefOnCornerCases(t *testing.T) {
	cfg := CircleRuleConfig{SampleDist: 4, RMin: 1.5, RMax: 9.5, CoverThreshold: 0.9}
	full := grid.NewReal(48, 40)
	gridkit.Fill(full, 1)
	if got := requireMatchesRef(t, "all foreground", full, cfg); len(got) == 0 {
		t.Fatal("all-foreground window: no shots")
	}
	if got := requireMatchesRef(t, "all background", grid.NewReal(48, 40), cfg); got != nil {
		t.Fatalf("all-background window: %d shots", len(got))
	}
	for _, at := range []geom.Pt{{X: 0, Y: 0}, {X: 20, Y: 20}, {X: 47, Y: 39}, {X: 0, Y: 17}} {
		m := grid.NewReal(48, 40)
		m.Set(at.X, at.Y, 1)
		if got := requireMatchesRef(t, "single pixel", m, cfg); len(got) != 1 {
			t.Fatalf("single pixel at %v: %d shots", at, len(got))
		}
		if at.X+1 < 48 && at.Y+1 < 40 {
			m.Set(at.X+1, at.Y, 1)
			m.Set(at.X, at.Y+1, 1)
			m.Set(at.X+1, at.Y+1, 1)
			// Zhang–Suen erases a 2×2 block entirely: no skeleton, no shot.
			requireMatchesRef(t, "2×2 block", m, cfg)
		}
	}
	// CircleOpt seeds with its own, clamped radius bounds.
	l := layout.GenerateSuite()[3]
	mask := l.Rasterize(128)
	clamped := DefaultCircleRuleConfig(16)
	clamped.RMin, clamped.RMax = clamped.RMin+0.3, clamped.RMax-1.1
	requireMatchesRef(t, "clamped radii", mask, clamped)
	clamped.RMax = clamped.RMin
	requireMatchesRef(t, "RMin == RMax", mask, clamped)
	// A sub-pixel RMin whose first circle holds no sub-sample at all.
	requireMatchesRef(t, "tiny RMin", mask, CircleRuleConfig{SampleDist: 2, RMin: 0.2, RMax: 3, CoverThreshold: 0.9})
}

// randomRects paints a union of rectangles, some hanging over the border.
func randomRects(rng *rand.Rand, w, h int) *grid.Real {
	var rects []geom.Rect
	for k := rng.Intn(7); k >= 0; k-- {
		x0, y0 := rng.Intn(w+6)-6, rng.Intn(h+6)-6
		x1, y1 := x0+rng.Intn(w/2+1)+1, y0+rng.Intn(h/2+1)+1
		x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, w), min(y1, h)
		if x1 > x0 && y1 > y0 {
			rects = append(rects, geom.Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0})
		}
	}
	return layoutkit.RasterizeRects(w, h, rects)
}

func TestCircleRuleMatchesRefOnRandomRects(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		m := randomRects(rng, rng.Intn(90)+6, rng.Intn(90)+6)
		rmin := 0.5 + rng.Float64()*3
		cfg := CircleRuleConfig{SampleDist: rng.Intn(8) + 1, RMin: rmin, RMax: rmin + rng.Float64()*10,
			CoverThreshold: 0.6 + 0.4*rng.Float64(), DisableRepair: trial%5 == 0}
		requireMatchesRef(t, fmt.Sprintf("trial %d", trial), m, cfg)
	}
}

func FuzzCircleRuleMatchesRef(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(64), uint8(4), uint8(3), uint8(12))
	f.Add(int64(2), uint8(96), uint8(9), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(17), uint8(90), uint8(16), uint8(9), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, w, h, sample, rmin, span uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := randomRects(rng, int(w)%91+6, int(h)%91+6)
		cfg := CircleRuleConfig{
			SampleDist:     int(sample)%16 + 1,
			RMin:           0.25 + float64(rmin%24)/4,
			CoverThreshold: 0.9,
			DisableRepair:  seed%7 == 0,
		}
		cfg.RMax = cfg.RMin + float64(span%48)/4
		requireMatchesRef(t, "fuzz", m, cfg)
	})
}
