package metrics

import (
	"cfaopc/internal/layout"
	"cfaopc/internal/litho"
)

// AutoGauges builds one horizontal CD gauge through the vertical midline of
// every layout rectangle at least minHeightNM tall — the standard "one
// gauge per drawn feature" setup.
func AutoGauges(l *layout.Layout, n int, minHeightNM float64) []litho.Gauge {
	dx := float64(l.TileNM) / float64(n)
	var gauges []litho.Gauge
	for _, r := range l.Rects {
		if float64(r.H) < minHeightNM {
			continue
		}
		midY := int((float64(r.Y) + float64(r.H)/2) / dx)
		if midY < 0 || midY >= n {
			continue
		}
		// Cut a window somewhat wider than the feature so the run is
		// bounded, without reaching the neighbouring lane.
		gauges = append(gauges, litho.Gauge{
			X1: int(float64(r.X)/dx) - 2,
			X2: int(float64(r.X+r.W)/dx) + 2,
			Y:  midY,
		})
	}
	return gauges
}
