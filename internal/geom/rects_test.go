package geom_test

// The external test package, so it can paint rectangles with
// internal/testkit/layoutkit, which imports geom.

import (
	"testing"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
	"cfaopc/internal/testkit/layoutkit"
)

func TestRasterizeRectsRoundtrip(t *testing.T) {
	m := grid.NewReal(5, 3)
	for y, r := range []string{
		"##.##",
		"##.##",
		"#####",
	} {
		for x, c := range r {
			if c == '#' {
				m.Set(x, y, 1)
			}
		}
	}
	rects := geom.PartitionRects(m)
	back := layoutkit.RasterizeRects(m.W, m.H, rects)
	clean := gridkit.Clone(m)
	geom.RemoveCheckerboards(clean)
	for i := range clean.Data {
		if clean.Data[i] != back.Data[i] {
			t.Fatalf("rasterize roundtrip mismatch at %d", i)
		}
	}
}
