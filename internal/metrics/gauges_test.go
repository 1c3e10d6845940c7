package metrics

import (
	"testing"

	"cfaopc/internal/layout"
)

func cduLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "cdu",
		TileNM: 512,
		Rects: []layout.Rect{
			{X: 100, Y: 100, W: 64, H: 300},
			{X: 300, Y: 100, W: 80, H: 300},
			{X: 100, Y: 450, W: 200, H: 20}, // too short for a gauge at 40nm
		},
	}
}

func TestAutoGauges(t *testing.T) {
	l := cduLayout()
	gauges := AutoGauges(l, 128, 40)
	if len(gauges) != 2 {
		t.Fatalf("gauges = %d, want 2 (short rect excluded)", len(gauges))
	}
	// Gauge rows are the vertical midlines (y = 250 nm → px 62 at 4 nm/px).
	if gauges[0].Y != 62 {
		t.Fatalf("gauge row %d, want 62", gauges[0].Y)
	}
}
