package flow

import (
	"testing"

	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/layoutkit"
)

// fixedRuleOptimizer is a deterministic, simulator-independent engine for
// the equivalence tests: rule-based circle fracturing at a fixed pixel
// scale. Because it ignores the simulator, the reference path below can
// invoke it without building one.
func fixedRuleOptimizer(dx float64) Optimizer {
	return func(_ *litho.Simulator, target *grid.Real) []geom.Circle {
		return fracture.CircleRule(target, fracture.DefaultCircleRuleConfig(dx))
	}
}

// extractWindow copies the window×window region at origin (ox, oy) out of
// the full rasterized layout into a fresh target grid, reporting whether
// any pixel is occupied — the pre-streaming rasterizer, kept as the
// reference the streamed windows are compared against. The origin may be
// negative and the window may extend past the grid at the borders;
// out-of-grid pixels stay empty.
func extractWindow(full *grid.Real, ox, oy, window int) (*grid.Real, bool) {
	target := grid.NewReal(window, window)
	occupied := false
	for y := 0; y < window; y++ {
		fy := oy + y
		if fy < 0 || fy >= full.H {
			continue
		}
		for x := 0; x < window; x++ {
			fx := ox + x
			if fx < 0 || fx >= full.W {
				continue
			}
			v := full.Data[fy*full.W+fx]
			target.Data[y*window+x] = v
			if v > 0.5 {
				occupied = true
			}
		}
	}
	return target, occupied
}

// referenceFullGridRun replays the pre-streaming flow exactly: rasterize
// the entire chip, extract every halo window out of the dense grid,
// optimize, and keep core-owned shots in row-major order. It is the
// oracle the streaming path must match byte for byte.
func referenceFullGridRun(l *layout.Layout, cfg Config) []geom.Circle {
	full := l.Rasterize(cfg.GridN)
	window := cfg.CorePx + 2*cfg.HaloPx
	var shots []geom.Circle
	for cy := 0; cy < cfg.GridN; cy += cfg.CorePx {
		for cx := 0; cx < cfg.GridN; cx += cfg.CorePx {
			ox, oy := cx-cfg.HaloPx, cy-cfg.HaloPx
			target, occupied := extractWindow(full, ox, oy, window)
			if !occupied {
				continue
			}
			shots = append(shots, ownedShots(cfg.Optimize(nil, target), ox, oy, cx, cy, cfg.CorePx)...)
		}
	}
	return shots
}

// TestStreamingEquivalenceFullGrid is the acceptance property of the
// streaming refactor: over randomized layouts, even and uneven tilings,
// bounded and unbounded shot radii, and TileWorkers ∈ {1, 8}, the
// streamed flow's shots are byte-identical to the full-grid reference
// (and a mask is a pure function of them).
func TestStreamingEquivalenceFullGrid(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		gridN  int
		corePx int
		haloPx int
		rMaxPx float64
	}{
		{name: "even 2x2", seed: 1, gridN: 128, corePx: 64, haloPx: 8, rMaxPx: 0},
		{name: "uneven 3x3 bounded", seed: 2, gridN: 256, corePx: 96, haloPx: 16, rMaxPx: 40},
		{name: "many tiles bounded", seed: 3, gridN: 256, corePx: 32, haloPx: 8, rMaxPx: 20},
		{name: "single core column", seed: 4, gridN: 160, corePx: 150, haloPx: 5, rMaxPx: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := layoutkit.GenerateRandom(tc.seed, layoutkit.RandomConfig{
				TileNM: 2048, Features: 7, MarginNM: 128,
			})
			dx := float64(l.TileNM) / float64(tc.gridN)
			mk := func(workers int) Config {
				return Config{
					GridN:       tc.gridN,
					CorePx:      tc.corePx,
					HaloPx:      tc.haloPx,
					Optics:      optics.Default(),
					KOpt:        2,
					TileWorkers: workers,
					Optimize:    fixedRuleOptimizer(dx),
					RMaxPx:      tc.rMaxPx,
				}
			}
			wantShots := referenceFullGridRun(l, mk(1))
			if len(wantShots) == 0 {
				t.Fatal("reference run produced no shots")
			}
			for _, workers := range []int{1, 8} {
				res, err := Run(l, mk(workers))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Shots) != len(wantShots) {
					t.Fatalf("workers=%d: %d shots vs reference %d", workers, len(res.Shots), len(wantShots))
				}
				for i := range res.Shots {
					if res.Shots[i] != wantShots[i] {
						t.Fatalf("workers=%d: shot %d = %+v, reference %+v", workers, i, res.Shots[i], wantShots[i])
					}
				}
				if res.PeakBytes <= 0 {
					t.Fatalf("workers=%d: PeakBytes = %d", workers, res.PeakBytes)
				}
			}
		})
	}
}

// TestStreamingDropsDenseMask pins the memory contract: the flow holds
// no dense grid, so the peak estimate scales with the window, not the
// chip.
func TestStreamingDropsDenseMask(t *testing.T) {
	l := layoutkit.GenerateRandom(5, layoutkit.RandomConfig{Features: 6, MarginNM: 128})
	const gridN = 512
	cfg := Config{
		GridN:    gridN,
		CorePx:   64,
		HaloPx:   16,
		Optics:   optics.Default(),
		KOpt:     2,
		Optimize: fixedRuleOptimizer(float64(l.TileNM) / gridN),
	}
	res, err := Run(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
	denseBytes := int64(gridN) * int64(gridN) * 8
	if res.PeakBytes >= denseBytes {
		t.Fatalf("peak %d bytes not below the dense-grid bar %d", res.PeakBytes, denseBytes)
	}
	for _, ts := range res.TileStats {
		if ts.Occupied && ts.RasterWall < 0 {
			t.Fatalf("tile %d negative raster wall", ts.Index)
		}
	}
}
