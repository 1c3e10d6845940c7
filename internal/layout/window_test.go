package layout_test

import (
	"math/rand"
	"slices"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/gridkit"
	"cfaopc/internal/testkit/layoutkit"
)

// extractRef copies the w×h window at (x0, y0) out of a full raster —
// the reference the streaming rasterizer must match byte for byte (the
// same extraction rule the flow used before it streamed windows).
func extractRef(full *grid.Real, x0, y0, w, h int) (*grid.Real, bool) {
	out := grid.NewReal(w, h)
	occupied := false
	for y := 0; y < h; y++ {
		fy := y0 + y
		if fy < 0 || fy >= full.H {
			continue
		}
		for x := 0; x < w; x++ {
			fx := x0 + x
			if fx < 0 || fx >= full.W {
				continue
			}
			v := full.Data[fy*full.W+fx]
			out.Data[y*w+x] = v
			if v > 0.5 {
				occupied = true
			}
		}
	}
	return out, occupied
}

// checkWindow compares RasterizeWindow and layout.WindowIndex.Window against the
// full-raster extraction for one window.
func checkWindow(t *testing.T, l *layout.Layout, ix *layout.WindowIndex, full *grid.Real, n, x0, y0, w, h int) {
	t.Helper()
	wantGrid, wantOcc := extractRef(full, x0, y0, w, h)
	direct, dOcc := l.RasterizeWindow(n, x0, y0, w, h)
	if dOcc != wantOcc {
		t.Fatalf("RasterizeWindow(%d, %d, %d, %d, %d) occupied = %v, want %v", n, x0, y0, w, h, dOcc, wantOcc)
	}
	if gridkit.SqDiff(direct, wantGrid) != 0 {
		t.Fatalf("RasterizeWindow(%d, %d, %d, %d, %d) differs from full-raster extraction", n, x0, y0, w, h)
	}
	indexed, iOcc := ix.Window(x0, y0, w, h)
	if iOcc != wantOcc {
		t.Fatalf("WindowIndex.Window(%d, %d, %d, %d) occupied = %v, want %v", x0, y0, w, h, iOcc, wantOcc)
	}
	if gridkit.SqDiff(indexed, wantGrid) != 0 {
		t.Fatalf("WindowIndex.Window(%d, %d, %d, %d) differs from full-raster extraction", x0, y0, w, h)
	}
	dirty := grid.NewReal(w, h)
	gridkit.Fill(dirty, 7)
	if occ := layout.Paint(dirty, ix.WindowSpans(x0, y0, w, h)); occ != wantOcc || !slices.Equal(dirty.Data, wantGrid.Data) {
		t.Fatalf("Paint of WindowSpans(%d, %d) on a dirty %dx%d raster: occupied = %v, want %v and the fresh window's pixels", x0, y0, w, h, occ, wantOcc)
	}
}

// One raster carried from window to window — what a tile lane does — holds
// after every Paint of the window's spans exactly what a fresh Window
// holds: negative origins, overhang past the far edges, and an unoccupied
// window, which must come back all zeros and false whatever the window
// before it drew.
func TestWindowIntoReusesOneRaster(t *testing.T) {
	l := layoutkit.GenerateRandom(3, layoutkit.RandomConfig{Features: 24, MarginNM: 64})
	const n, w = 256, 96
	ix := layout.NewWindowIndex(l, n)
	buf := grid.NewReal(w, w)
	unoccupied := 0
	for _, o := range [][2]int{{-40, -40}, {80, 80}, {-w, 10}, {200, 200}, {n, n}, {120, -30}, {30, 5 * n}, {60, 60}} {
		want, wantOcc := ix.Window(o[0], o[1], w, w)
		if occ := layout.Paint(buf, ix.WindowSpans(o[0], o[1], w, w)); occ != wantOcc || !slices.Equal(buf.Data, want.Data) {
			t.Fatalf("window at %v: occupied = %v, want %v and a fresh window's pixels", o, occ, wantOcc)
		}
		if !wantOcc {
			unoccupied++
			if gridkit.Sum(buf) != 0 {
				t.Fatalf("unoccupied window at %v holds %v foreground", o, gridkit.Sum(buf))
			}
		}
	}
	if unoccupied < 3 {
		t.Fatalf("only %d unoccupied windows in the walk", unoccupied)
	}
}

// TestRasterizeWindowBorderCases is the table-driven suite: interior,
// seam-straddling, negative-origin, overhanging, off-grid and
// whole-grid windows over a layout with sub-pixel rect edges.
func TestRasterizeWindowBorderCases(t *testing.T) {
	l := &layout.Layout{
		Name:   "edges",
		TileNM: 1000, // 1000/64 px → non-integer nm-per-px, exercises ceilDiv
		Rects: []layout.Rect{
			{X: 0, Y: 0, W: 90, H: 70},     // touches the grid origin
			{X: 905, Y: 930, W: 95, H: 70}, // touches the far corner
			{X: 480, Y: 100, W: 40, H: 800},
			{X: 100, Y: 490, W: 380, H: 20}, // abuts the vertical bar: a cross built from touching rects
			{X: 520, Y: 490, W: 380, H: 20},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	const n = 64
	full := l.Rasterize(n)
	ix := layout.NewWindowIndex(l, n)
	cases := []struct{ x0, y0, w, h int }{
		{0, 0, n, n},      // whole grid
		{10, 10, 16, 16},  // interior
		{-8, -8, 24, 24},  // negative origin halo
		{56, 56, 24, 24},  // overhangs bottom-right
		{-100, 0, 20, 20}, // fully left of grid
		{0, n + 5, 8, 8},  // fully below grid
		{30, -4, 12, 40},  // vertical strip through the cross
		{0, 28, n, 8},     // wide short band over the horizontal bar
		{63, 63, 1, 1},    // single far-corner pixel
		{0, 0, 1, 1},      // single origin pixel
	}
	for _, c := range cases {
		checkWindow(t, l, ix, full, n, c.x0, c.y0, c.w, c.h)
	}
}

// TestRasterizeWindowProperty is the randomized equivalence property:
// for random layouts, grid sizes and window geometries (including
// windows hanging off every edge), RasterizeWindow and the span index
// reproduce the full-raster extraction exactly.
func TestRasterizeWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grids := []int{17, 64, 128, 257}
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		l := layoutkit.GenerateRandom(int64(trial), layoutkit.RandomConfig{
			TileNM:   1024 + 512*(trial%3),
			Features: 3 + trial%8,
			MarginNM: 64,
		})
		n := grids[trial%len(grids)]
		full := l.Rasterize(n)
		ix := layout.NewWindowIndex(l, n)
		for q := 0; q < 16; q++ {
			w := 1 + rng.Intn(n+20)
			h := 1 + rng.Intn(n+20)
			x0 := rng.Intn(n+2*w) - w
			y0 := rng.Intn(n+2*h) - h
			checkWindow(t, l, ix, full, n, x0, y0, w, h)
		}
	}
}

// TestWindowIndexBytes pins the accounting used by flow.Result.PeakBytes.
func TestWindowIndexBytes(t *testing.T) {
	l := layoutkit.GenerateRandom(3, layoutkit.RandomConfig{Features: 6})
	ix := layout.NewWindowIndex(l, 256)
	if ix.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want > 0", ix.Bytes())
	}
	empty := layout.NewWindowIndex(&layout.Layout{Name: "empty", TileNM: 2048}, 256)
	if got, _ := empty.Window(0, 0, 64, 64); gridkit.Sum(got) != 0 {
		t.Fatal("empty layout produced foreground")
	}
}

// FuzzRasterizeWindow drives the equivalence property from fuzzed window
// geometry and layout seeds: whatever the fuzzer picks, the streamed
// window must equal the full-raster extraction.
func FuzzRasterizeWindow(f *testing.F) {
	f.Add(int64(1), 64, 0, 0, 64, 64)        // whole grid
	f.Add(int64(2), 128, -16, -16, 48, 48)   // negative origin
	f.Add(int64(3), 100, 90, 90, 40, 40)     // overhang
	f.Add(int64(4), 33, 5, -7, 1, 90)        // tall sliver, odd grid
	f.Add(int64(5), 256, 1000, 1000, 16, 16) // fully off-grid
	f.Fuzz(func(t *testing.T, seed int64, n, x0, y0, w, h int) {
		if n < 1 || n > 300 || w < 1 || w > 400 || h < 1 || h > 400 {
			return
		}
		if x0 < -2*n || x0 > 2*n || y0 < -2*n || y0 > 2*n {
			return
		}
		l := layoutkit.GenerateRandom(seed, layoutkit.RandomConfig{Features: 4, MarginNM: 64})
		full := l.Rasterize(n)
		wantGrid, wantOcc := extractRef(full, x0, y0, w, h)
		got, occ := l.RasterizeWindow(n, x0, y0, w, h)
		if occ != wantOcc || gridkit.SqDiff(got, wantGrid) != 0 {
			t.Fatalf("RasterizeWindow(%d, %d, %d, %d, %d) seed %d diverges from full raster", n, x0, y0, w, h, seed)
		}
		ix := layout.NewWindowIndex(l, n)
		got, occ = ix.Window(x0, y0, w, h)
		if occ != wantOcc || gridkit.SqDiff(got, wantGrid) != 0 {
			t.Fatalf("WindowIndex.Window(%d, %d, %d, %d) seed %d diverges from full raster", x0, y0, w, h, seed)
		}
	})
}
