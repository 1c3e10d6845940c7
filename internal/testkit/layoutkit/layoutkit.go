// Package layoutkit holds the layout fixtures that tests in several
// packages share and no binary links; only _test.go files import it.
//
//   - GenerateRandom: seeded random layouts, the stress-test companion to
//     the fixed benchmark suite;
//   - RasterizeRects: rectangles painted into a binary grid, the inverse
//     of a rectilinear decomposition.
package layoutkit

import (
	"fmt"
	"math/rand"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
)

// RandomConfig controls the randomized layout generator, the stress-test
// companion to the fixed benchmark suite.
type RandomConfig struct {
	TileNM     int   // tile edge (default 2048)
	Features   int   // bars to place (default 8)
	WidthsNM   []int // candidate bar widths (default 60–120)
	MinLenNM   int   // bar length lower bound (default 200)
	MaxLenNM   int   // bar length upper bound (default 700)
	SpacingNM  int   // minimum clearance between features (default 80)
	MarginNM   int   // keep-out from the tile border (default 256)
	MaxRetries int   // placement attempts per feature (default 64)
}

func (c *RandomConfig) fillDefaults() {
	if c.TileNM == 0 {
		c.TileNM = 2048
	}
	if c.Features == 0 {
		c.Features = 8
	}
	if len(c.WidthsNM) == 0 {
		c.WidthsNM = []int{60, 80, 100, 120}
	}
	if c.MinLenNM == 0 {
		c.MinLenNM = 200
	}
	if c.MaxLenNM == 0 {
		c.MaxLenNM = 700
	}
	if c.SpacingNM == 0 {
		c.SpacingNM = 80
	}
	if c.MarginNM == 0 {
		c.MarginNM = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 64
	}
}

// GenerateRandom produces a random but always-valid layout: bars (both
// orientations) rejection-sampled until they respect spacing and margins.
// The same seed always yields the same layout. Fewer than cfg.Features
// bars may be placed when the tile is too crowded; the result is still
// valid.
func GenerateRandom(seed int64, cfg RandomConfig) *layout.Layout {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(seed))
	l := &layout.Layout{Name: fmt.Sprintf("rand%d", seed), TileNM: cfg.TileNM}
	clearance := cfg.SpacingNM
	fits := func(c layout.Rect) bool {
		if c.X < cfg.MarginNM || c.Y < cfg.MarginNM ||
			c.X+c.W > cfg.TileNM-cfg.MarginNM || c.Y+c.H > cfg.TileNM-cfg.MarginNM {
			return false
		}
		for _, o := range l.Rects {
			if c.X < o.X+o.W+clearance && o.X < c.X+c.W+clearance &&
				c.Y < o.Y+o.H+clearance && o.Y < c.Y+c.H+clearance {
				return false
			}
		}
		return true
	}
	span := cfg.TileNM - 2*cfg.MarginNM
	for f := 0; f < cfg.Features; f++ {
		for try := 0; try < cfg.MaxRetries; try++ {
			w := cfg.WidthsNM[rng.Intn(len(cfg.WidthsNM))]
			length := cfg.MinLenNM + rng.Intn(cfg.MaxLenNM-cfg.MinLenNM+1)
			r := layout.Rect{
				X: cfg.MarginNM + rng.Intn(span),
				Y: cfg.MarginNM + rng.Intn(span),
			}
			if rng.Intn(2) == 0 {
				r.W, r.H = w, length // vertical bar
			} else {
				r.W, r.H = length, w // horizontal bar
			}
			if fits(r) {
				l.Rects = append(l.Rects, r)
				break
			}
		}
	}
	if err := l.Validate(); err != nil {
		panic(fmt.Sprintf("layoutkit: random generator produced invalid layout: %v", err))
	}
	return l
}

// RasterizeRects paints rectangles into a fresh w×h binary grid; the
// inverse of a decomposition, used to verify partitions.
func RasterizeRects(w, h int, rects []geom.Rect) *grid.Real {
	m := grid.NewReal(w, h)
	for _, r := range rects {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if x >= 0 && x < w && y >= 0 && y < h {
					m.Data[y*w+x] = 1
				}
			}
		}
	}
	return m
}
