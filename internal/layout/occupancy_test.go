package layout_test

import (
	"math/rand"
	"testing"

	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/layoutkit"
)

// occupancy by brute force: rasterize the window and count.
func countWindow(ix *layout.WindowIndex, x0, y0, w, h int) int {
	m, _ := ix.Window(x0, y0, w, h)
	n := 0
	for _, v := range m.Data {
		if v > 0.5 {
			n++
		}
	}
	return n
}

func TestOccupancyMatchesWindowRaster(t *testing.T) {
	const n = 256
	for seed := int64(0); seed < 4; seed++ {
		l := layoutkit.GenerateRandom(seed, layoutkit.RandomConfig{})
		ix := layout.NewWindowIndex(l, n)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 200; i++ {
			w := 1 + rng.Intn(160)
			h := 1 + rng.Intn(160)
			x0 := rng.Intn(n+80) - 40
			y0 := rng.Intn(n+80) - 40
			got := ix.Occupancy(x0, y0, w, h)
			want := countWindow(ix, x0, y0, w, h)
			if got != want {
				t.Fatalf("seed %d window (%d,%d %dx%d): Occupancy=%d, raster count=%d",
					seed, x0, y0, w, h, got, want)
			}
			if (got == 0) != !mustOccupied(ix, x0, y0, w, h) {
				t.Fatalf("seed %d window (%d,%d %dx%d): occupancy %d disagrees with Window occupied flag",
					seed, x0, y0, w, h, got)
			}
		}
	}
}

func mustOccupied(ix *layout.WindowIndex, x0, y0, w, h int) bool {
	_, occ := ix.Window(x0, y0, w, h)
	return occ
}

func TestOccupancyFullyOffGrid(t *testing.T) {
	l := layoutkit.GenerateRandom(1, layoutkit.RandomConfig{})
	ix := layout.NewWindowIndex(l, 128)
	if got := ix.Occupancy(-64, -64, 32, 32); got != 0 {
		t.Fatalf("off-grid window occupancy = %d, want 0", got)
	}
	if got := ix.Occupancy(0, 4096, 32, 32); got != 0 {
		t.Fatalf("below-grid window occupancy = %d, want 0", got)
	}
}

func TestWindowSpansTranslationInvariance(t *testing.T) {
	// In an aligned array every cell window must produce byte-identical
	// canonical spans — the property the dedup cache key rests on.
	const n = 256
	l, err := layout.GenerateArray(8, 8, layout.ArrayConfig{TileNM: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ix := layout.NewWindowIndex(l, n)
	const core, halo = 32, 8
	win := core + 2*halo
	var ref []layout.Span
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			s := ix.WindowSpans(c*core-halo, r*core-halo, win, win)
			if len(s) == 0 {
				t.Fatalf("cell (%d,%d): no spans", r, c)
			}
			if ref == nil {
				ref = s
				continue
			}
			if len(s) != len(ref) {
				t.Fatalf("cell (%d,%d): %d spans, reference has %d", r, c, len(s), len(ref))
			}
			for i := range s {
				if s[i] != ref[i] {
					t.Fatalf("cell (%d,%d) span %d = %+v, reference %+v", r, c, i, s[i], ref[i])
				}
			}
		}
	}
}

func TestWindowSpansCanonicalForm(t *testing.T) {
	// A rect spanning several index row-buckets must appear exactly once,
	// and spans must come out sorted and clipped to the window ∩ grid.
	l := &layout.Layout{Name: "tall", TileNM: 256, Rects: []layout.Rect{
		{X: 10, Y: 0, W: 20, H: 250}, // crosses multiple 64-row buckets at n=256
		{X: 100, Y: 40, W: 30, H: 30},
	}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := layout.NewWindowIndex(l, 256)
	spans := ix.WindowSpans(0, 0, 256, 256)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (bucket dedup failed): %+v", len(spans), spans)
	}
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Y0 > b.Y0 || (a.Y0 == b.Y0 && a.X0 > b.X0) {
			t.Fatalf("spans not sorted: %+v before %+v", a, b)
		}
	}
	// Window overhanging the grid: spans clip to the window box.
	for _, s := range ix.WindowSpans(-16, -16, 300, 300) {
		if s.X0 < 0 || s.Y0 < 0 || s.X1 > 300 || s.Y1 > 300 || s.X0 >= s.X1 || s.Y0 >= s.Y1 {
			t.Fatalf("span %+v escapes window-local box", s)
		}
	}
	if got := ix.WindowSpans(0, 1000, 32, 32); got != nil {
		t.Fatalf("off-grid spans = %+v, want nil", got)
	}
}
