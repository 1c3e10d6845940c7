package fracture

import (
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
)

// GreedyCircleConfig parameterizes the set-cover fracturer.
type GreedyCircleConfig struct {
	RMin, RMax     float64 // radius bounds per shot (pixels)
	CoverThreshold float64 // per-circle cover-rate floor (like Algorithm 1's I)
	// MaxShots bounds the shot list; zero means unlimited (stop when no
	// legal circle adds coverage).
	MaxShots int
}

// GreedyCircles fractures a mask by greedy weighted set cover: repeatedly
// place the circle that covers the most not-yet-covered mask pixels,
// subject to the radius bounds and the cover-rate constraint (the circle
// may not spill more than 1-CoverThreshold of its area outside the mask).
// Candidate centers are the mask pixels; the candidate radius at a center
// is the largest legal one (greedy prefers big shots).
//
// This is an alternative to CircleRule's skeleton sampling: slower
// (O(shots · mask area)) but independent of thinning artifacts, and
// near-optimal in covered-area-per-shot by the classical 1-1/e set-cover
// guarantee. It serves as a shot-count reference point for both CircleRule
// and CircleOpt.
func GreedyCircles(mask *grid.Real, cfg GreedyCircleConfig) []geom.Circle {
	if cfg.RMin <= 0 || cfg.RMax < cfg.RMin || cfg.CoverThreshold <= 0 || cfg.CoverThreshold > 1 {
		panic("fracture: invalid greedy config")
	}
	w, h := mask.W, mask.H
	covered := grid.NewReal(w, h)

	// Largest legal radius per center, from the distance transform of the
	// background: a circle of radius r at p keeps cover-rate ≈ 1 while
	// r ≲ dist(p, background); the cover-rate check then fine-tunes.
	inv := grid.NewReal(w, h)
	for i, v := range mask.Data {
		if v <= 0.5 {
			inv.Data[i] = 1
		}
	}
	edt := geom.DistanceTransform(inv)

	// legalRadius grows the radius from the EDT estimate while the
	// cover-rate constraint holds.
	legalRadius := func(x, y int) float64 {
		r := edt.Data[y*w+x] - 0.5
		if r < cfg.RMin {
			r = cfg.RMin
		}
		if r > cfg.RMax {
			r = cfg.RMax
		}
		// Expand in half-pixel steps while legal, like selectRadius.
		for r+0.5 <= cfg.RMax {
			c := geom.Circle{X: float64(x), Y: float64(y), R: r + 0.5}
			if geom.CoverRate(c, mask) < cfg.CoverThreshold {
				break
			}
			r += 0.5
		}
		if geom.CoverRate(geom.Circle{X: float64(x), Y: float64(y), R: r}, mask) < cfg.CoverThreshold {
			return 0 // even the minimum radius spills too much
		}
		return r
	}

	gain := func(c geom.Circle) int {
		r2 := c.R * c.R
		g := 0
		x0, x1 := int(c.X-c.R-1), int(c.X+c.R+1)
		y0, y1 := int(c.Y-c.R-1), int(c.Y+c.R+1)
		for y := y0; y <= y1; y++ {
			if y < 0 || y >= h {
				continue
			}
			dy := float64(y) - c.Y
			for x := x0; x <= x1; x++ {
				if x < 0 || x >= w {
					continue
				}
				dx := float64(x) - c.X
				if float64(dx*dx)+float64(dy*dy) <= r2 && mask.Data[y*w+x] > 0.5 && covered.Data[y*w+x] <= 0.5 {
					g++
				}
			}
		}
		return g
	}

	// The legal radius depends only on the mask, not on coverage, so it is
	// computed once per candidate center.
	radii := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if mask.Data[y*w+x] > 0.5 {
				radii[y*w+x] = legalRadius(x, y)
			}
		}
	}

	var shots []geom.Circle
	for cfg.MaxShots == 0 || len(shots) < cfg.MaxShots {
		bestGain := 0
		var best geom.Circle
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r := radii[y*w+x]
				if r <= 0 || covered.Data[y*w+x] > 0.5 {
					continue
				}
				c := geom.Circle{X: float64(x), Y: float64(y), R: r}
				if g := gain(c); g > bestGain {
					bestGain = g
					best = c
				}
			}
		}
		if bestGain == 0 {
			break
		}
		shots = append(shots, best)
		paintCircle(covered, best)
	}
	return shots
}

// paintCircle incrementally adds one circle to a coverage raster.
func paintCircle(m *grid.Real, c geom.Circle) {
	r2 := c.R * c.R
	x0, x1 := int(c.X-c.R-1), int(c.X+c.R+1)
	y0, y1 := int(c.Y-c.R-1), int(c.Y+c.R+1)
	for y := y0; y <= y1; y++ {
		if y < 0 || y >= m.H {
			continue
		}
		dy := float64(y) - c.Y
		for x := x0; x <= x1; x++ {
			if x < 0 || x >= m.W {
				continue
			}
			dx := float64(x) - c.X
			if float64(dx*dx)+float64(dy*dy) <= r2 {
				m.Data[y*m.W+x] = 1
			}
		}
	}
}
