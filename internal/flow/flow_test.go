package flow

import (
	"context"
	"reflect"
	"testing"

	"cfaopc/internal/core"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/layoutkit"
	"cfaopc/internal/wcache"
)

// circleOptimizer adapts core.CircleOpt to the flow Optimizer signature.
func circleOptimizer(iters int) Optimizer {
	return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
		cfg := core.DefaultConfig(sim.DX)
		cfg.Iterations = iters
		return (&core.CircleOpt{Cfg: cfg, InitIterations: 5}).Optimize(sim, target).Shots
	}
}

// bigLayout builds a 1024 nm layout with features in two distant corners,
// so a 2×2 tiling puts work in separate windows.
func bigLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "big",
		TileNM: 1024,
		Rects: []layout.Rect{
			{X: 180, Y: 150, W: 72, H: 260},
			{X: 640, Y: 600, W: 80, H: 240},
		},
	}
}

func testConfig() Config {
	o := optics.Default()
	return Config{
		GridN:    256, // 4 nm/px over 1024 nm
		CorePx:   128,
		HaloPx:   32, // 128 nm context
		Optics:   o,
		KOpt:     4,
		Optimize: circleOptimizer(8),
	}
}

func TestRunValidation(t *testing.T) {
	l := bigLayout()
	bad := testConfig()
	bad.GridN = 0
	if _, err := RunContext(context.Background(), l, bad); err == nil {
		t.Error("zero grid accepted")
	}
	bad = testConfig()
	bad.Optimize = nil
	if _, err := RunContext(context.Background(), l, bad); err == nil {
		t.Error("nil optimizer accepted")
	}
	bad = testConfig()
	bad.CorePx = 300
	bad.HaloPx = 100 // window 500 > grid 256
	if _, err := RunContext(context.Background(), l, bad); err == nil {
		t.Error("oversized window accepted")
	}
}

func TestRunStitchesTiles(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 4 {
		t.Fatalf("tiles = %d, want 4", res.Tiles)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
	// Shots must appear near both features (top-left and bottom-right).
	nearTL, nearBR := 0, 0
	for _, s := range res.Shots {
		if s.X < 128 && s.Y < 128 {
			nearTL++
		}
		if s.X >= 128 && s.Y >= 128 {
			nearBR++
		}
	}
	if nearTL == 0 || nearBR == 0 {
		t.Fatalf("shots not distributed: TL=%d BR=%d", nearTL, nearBR)
	}
	// No shot far from any target feature (> 200 nm).
	target := l.Rasterize(cfg.GridN)
	d := geom.DistanceTransform(target)
	dxNM := float64(l.TileNM) / float64(cfg.GridN)
	for _, s := range res.Shots {
		px, py := int(s.X), int(s.Y)
		if px < 0 || px >= cfg.GridN || py < 0 || py >= cfg.GridN {
			t.Fatalf("shot outside grid: %+v", s)
		}
		if d.At(px, py)*dxNM > 200 {
			t.Fatalf("stray shot %v nm from any feature", d.At(px, py)*dxNM)
		}
	}
	// The stitched mask prints both features.
	oCfg := cfg.Optics
	oCfg.TileNM = float64(l.TileNM)
	fullSim, err := litho.New(oCfg, cfg.GridN)
	if err != nil {
		t.Fatal(err)
	}
	print := fullSim.Simulate(geom.RasterizeCircles(cfg.GridN, cfg.GridN, res.Shots))
	covered := 0
	total := 0
	for i := range target.Data {
		if target.Data[i] > 0.5 {
			total++
			if print.ZNom.Data[i] > 0.5 {
				covered++
			}
		}
	}
	if float64(covered)/float64(total) < 0.6 {
		t.Fatalf("stitched print covers only %d/%d of the target", covered, total)
	}
}

func TestRunEmptyLayout(t *testing.T) {
	l := &layout.Layout{Name: "empty", TileNM: 1024}
	res, err := RunContext(context.Background(), l, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shots) != 0 {
		t.Fatalf("empty layout produced %d shots", len(res.Shots))
	}
	if res.Tiles != 4 {
		t.Fatalf("tiles = %d", res.Tiles)
	}
	if len(res.TileStats) != 4 {
		t.Fatalf("tile stats = %d, want 4", len(res.TileStats))
	}
	for i, ts := range res.TileStats {
		if ts.Index != i {
			t.Fatalf("tile stat %d has index %d", i, ts.Index)
		}
		if ts.Occupied || ts.Shots != 0 {
			t.Fatalf("empty layout tile %d: occupied=%v shots=%d", i, ts.Occupied, ts.Shots)
		}
	}
}

// TestRunUnevenCore covers cores that do not divide the grid evenly: the
// border row/column gets a partial core but every pixel is still owned by
// exactly one tile.
func TestRunUnevenCore(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.CorePx = 96 // 256/96 → 3 tiles per axis, last core partial
	cfg.HaloPx = 16 // window 128 ≤ grid 256
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 9 {
		t.Fatalf("tiles = %d, want 9", res.Tiles)
	}
	if len(res.TileStats) != 9 {
		t.Fatalf("tile stats = %d, want 9", len(res.TileStats))
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
	seen := map[[3]int]int{}
	for _, s := range res.Shots {
		if s.X < 0 || s.X >= float64(cfg.GridN) || s.Y < 0 || s.Y >= float64(cfg.GridN) {
			t.Fatalf("shot outside grid: %+v", s)
		}
		k := [3]int{int(s.X * 16), int(s.Y * 16), int(s.R * 16)}
		seen[k]++
		if seen[k] > 1 {
			t.Fatalf("duplicated shot %v", k)
		}
	}
	// Stats shot counts must sum to the stitched list.
	sum := 0
	for _, ts := range res.TileStats {
		sum += ts.Shots
	}
	if sum != len(res.Shots) {
		t.Fatalf("tile stat shots sum %d != %d stitched shots", sum, len(res.Shots))
	}
}

// TestDeterministicAcrossTileWorkers is the concurrency contract: any
// tile-worker count produces byte-identical shot lists.
func TestDeterministicAcrossTileWorkers(t *testing.T) {
	l := layoutkit.GenerateRandom(42, layoutkit.RandomConfig{TileNM: 1024, Features: 6, MarginNM: 128})
	cfg := testConfig()
	cfg.CorePx = 64 // 16 windows over the 256 grid
	iters, workerCounts := 6, []int{8, -1}
	if testing.Short() {
		iters, workerCounts = 4, []int{8}
	}
	cfg.Optimize = circleOptimizer(iters)

	cfg.TileWorkers = 1
	serial, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Shots) == 0 {
		t.Fatal("serial run produced no shots")
	}
	for _, tw := range workerCounts {
		cfg.TileWorkers = tw
		par, err := RunContext(context.Background(), l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Shots) != len(serial.Shots) {
			t.Fatalf("tile-workers=%d: %d shots vs %d serial", tw, len(par.Shots), len(serial.Shots))
		}
		for i := range par.Shots {
			if par.Shots[i] != serial.Shots[i] {
				t.Fatalf("tile-workers=%d: shot %d differs: %+v vs %+v", tw, i, par.Shots[i], serial.Shots[i])
			}
		}
		if len(par.TileStats) != len(serial.TileStats) {
			t.Fatalf("tile-workers=%d: %d stats vs %d", tw, len(par.TileStats), len(serial.TileStats))
		}
		for i := range par.TileStats {
			p, s := par.TileStats[i], serial.TileStats[i]
			if p.Index != s.Index || p.CX != s.CX || p.CY != s.CY ||
				p.Occupied != s.Occupied || p.Shots != s.Shots {
				t.Fatalf("tile-workers=%d: stat %d differs: %+v vs %+v", tw, i, p, s)
			}
		}
	}
}

// TestExtractWindow is the table-driven border-case suite for the window
// extraction helper.
func TestExtractWindow(t *testing.T) {
	// An 8×8 full grid with a known occupied pixel at (2, 3) and (7, 7).
	full := grid.NewReal(8, 8)
	full.Set(2, 3, 1)
	full.Set(7, 7, 1)
	empty := grid.NewReal(8, 8)

	cases := []struct {
		name         string
		full         *grid.Real
		ox, oy, win  int
		wantOccupied bool
		wantSet      [][2]int // window-local coordinates expected to be 1
	}{
		{
			name: "interior window",
			full: full, ox: 1, oy: 2, win: 4,
			wantOccupied: true,
			wantSet:      [][2]int{{1, 1}}, // (2,3) - (1,2)
		},
		{
			name: "negative origin halo window",
			full: full, ox: -2, oy: -1, win: 6,
			wantOccupied: true,
			wantSet:      [][2]int{{4, 4}}, // (2,3) - (-2,-1)
		},
		{
			name: "window equals grid",
			full: full, ox: 0, oy: 0, win: 8,
			wantOccupied: true,
			wantSet:      [][2]int{{2, 3}, {7, 7}},
		},
		{
			name: "window overhangs bottom-right",
			full: full, ox: 5, oy: 5, win: 6,
			wantOccupied: true,
			wantSet:      [][2]int{{2, 2}}, // (7,7) - (5,5)
		},
		{
			name: "fully outside grid",
			full: full, ox: -10, oy: -10, win: 4,
			wantOccupied: false,
		},
		{
			name: "all-empty layout",
			full: empty, ox: 0, oy: 0, win: 8,
			wantOccupied: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target, occ := extractWindow(tc.full, tc.ox, tc.oy, tc.win)
			if occ != tc.wantOccupied {
				t.Fatalf("occupied = %v, want %v", occ, tc.wantOccupied)
			}
			if target.W != tc.win || target.H != tc.win {
				t.Fatalf("window %dx%d, want %d", target.W, target.H, tc.win)
			}
			want := map[[2]int]bool{}
			for _, p := range tc.wantSet {
				want[p] = true
			}
			for y := 0; y < tc.win; y++ {
				for x := 0; x < tc.win; x++ {
					v := target.At(x, y)
					if want[[2]int{x, y}] {
						if v != 1 {
							t.Fatalf("pixel (%d,%d) = %v, want 1", x, y, v)
						}
					} else if v != 0 {
						t.Fatalf("pixel (%d,%d) = %v, want 0", x, y, v)
					}
				}
			}
		})
	}
}

// TestOwnedShots pins the ownership rule at the core boundary.
func TestOwnedShots(t *testing.T) {
	// Window origin (-4, -4), core [0,8)×[0,8).
	shots := []geom.Circle{
		{X: 4, Y: 4, R: 1},    // → (0,0): owned (inclusive lower edge)
		{X: 12, Y: 4, R: 1},   // → (8,0): not owned (exclusive upper edge)
		{X: 11.9, Y: 5, R: 2}, // → (7.9,1): owned
		{X: 3, Y: 3, R: 1},    // → (-1,-1): not owned
	}
	kept := ownedShots(shots, -4, -4, 0, 0, 8)
	if len(kept) != 2 {
		t.Fatalf("kept %d shots, want 2: %+v", len(kept), kept)
	}
	if kept[0] != (geom.Circle{X: 0, Y: 0, R: 1}) {
		t.Fatalf("first kept shot %+v", kept[0])
	}
	if kept[1].X != 7.9 || kept[1].Y != 1 || kept[1].R != 2 {
		t.Fatalf("second kept shot %+v", kept[1])
	}
}

func TestCoreOwnershipNoDuplicates(t *testing.T) {
	// A feature placed exactly on a tile seam must not produce duplicated
	// shots: each shot center is owned by exactly one core.
	l := &layout.Layout{
		Name:   "seam",
		TileNM: 1024,
		Rects:  []layout.Rect{{X: 460, Y: 400, W: 100, H: 200}}, // spans x=512 seam
	}
	res, err := RunContext(context.Background(), l, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
	seen := map[[3]int]int{}
	for _, s := range res.Shots {
		k := [3]int{int(s.X), int(s.Y), int(s.R)}
		seen[k]++
		if seen[k] > 1 {
			t.Fatalf("duplicated shot %v", k)
		}
	}
}

// TileStat.Wall was once set by a defer on a local copy after the value
// had been returned, so every in-process tile reported zero. An occupied
// tile that ran its ladder must report Wall ≥ RasterWall > 0; cached,
// unoccupied and plan-skipped tiles must still report a sane, non-
// negative pair.
func TestTileStatWall(t *testing.T) {
	cfg := testConfig()
	cfg.Optimize = ruleFallback()
	corner := &layout.Layout{Name: "corner", TileNM: 1024, Rects: []layout.Rect{{X: 100, Y: 100, W: 80, H: 200}}}
	res, err := RunContext(context.Background(), corner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, st := range res.TileStats {
		if st.Wall < st.RasterWall || st.RasterWall < 0 {
			t.Errorf("tile %d: Wall %v < RasterWall %v", st.Index, st.Wall, st.RasterWall)
		}
		if st.Occupied {
			occupied++
			if st.RasterWall <= 0 || st.Wall <= 0 {
				t.Errorf("occupied tile %d: Wall %v, RasterWall %v, want both positive", st.Index, st.Wall, st.RasterWall)
			}
		}
	}
	if occupied == 0 || occupied == len(res.TileStats) {
		t.Fatalf("%d of %d tiles occupied; the test needs both kinds", occupied, len(res.TileStats))
	}

	cfg = cacheConfig()
	cfg.Cache = mustCache(t, wcache.Config{})
	res, err = RunContext(context.Background(), arrayLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.TileStats {
		if st.Wall < st.RasterWall || st.RasterWall < 0 {
			t.Errorf("array tile %d (hit=%v): Wall %v, RasterWall %v", st.Index, st.CacheHit, st.Wall, st.RasterWall)
		}
		if st.CacheHit && st.Wall <= 0 {
			t.Errorf("array cached tile %d: Wall %v, want positive", st.Index, st.Wall)
		}
	}
	if res.CacheHits == 0 {
		t.Fatal("the array run served no tile from the cache")
	}
}

// TestPlanTilesUniform pins the plan to the row-major CorePx grid —
// indices and origins — and the identity every tile's stat starts from.
func TestPlanTilesUniform(t *testing.T) {
	cfg := testConfig() // 256 grid, 128 core, 32 halo → 2×2
	want := []tileJob{
		{index: 0, cx: 0, cy: 0},
		{index: 1, cx: 128, cy: 0},
		{index: 2, cx: 0, cy: 128},
		{index: 3, cx: 128, cy: 128},
	}
	got := planTiles(cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %+v, want %+v", got, want)
	}
	if st := got[3].stat(cfg); st != (TileStat{Index: 3, CX: 128, CY: 128, Core: 128, Window: 192}) {
		t.Fatalf("tile 3 stat = %+v", st)
	}
}
