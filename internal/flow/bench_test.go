package flow

import (
	"context"
	"slices"
	"testing"

	"cfaopc/internal/layout"
	"cfaopc/internal/optics"
	"cfaopc/internal/testkit/layoutkit"
)

// benchFlowConfig sizes a 1024² chip in 8×8 tiles of 128-px cores with a
// cheap deterministic rule optimizer, so the benchmark measures the
// flow's own memory behavior, not CircleOpt's.
func benchFlowConfig(l *layout.Layout, gridN int) Config {
	return Config{
		GridN:    gridN,
		CorePx:   128,
		HaloPx:   32,
		Optics:   optics.Default(),
		KOpt:     2,
		Optimize: fixedRuleOptimizer(float64(l.TileNM) / float64(gridN)),
	}
}

// BenchmarkFlowRunStreaming is the flow's own cost per 64-tile run: shot
// list only, no dense grid anywhere. It reports allocations plus the
// flow's peak-resident estimate per tile, the figure that must scale
// with the window size and not GridN².
func BenchmarkFlowRunStreaming(b *testing.B) {
	const gridN = 1024
	l := layoutkit.GenerateRandom(7, layoutkit.RandomConfig{Features: 16, MarginNM: 128})
	cfg := benchFlowConfig(l, gridN)
	// Warm the kernel cache outside the timed region.
	if _, err := RunContext(context.Background(), l, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	tiles := 1
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), l, cfg)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakBytes
		tiles = res.Tiles
	}
	b.ReportMetric(float64(peak)/float64(tiles), "peak-bytes/tile")
	b.ReportMetric(float64(peak), "peak-bytes")
}

// BenchmarkFlowTransport times the same four-tile run per way of
// reaching a tile worker: in this process, on a spawned subprocess, on
// a loopback TCP host. One lane each, so the gap between legs is the
// transport's wall overhead. A leg is timed only after its shots
// compared == against the in-process run's.
func BenchmarkFlowTransport(b *testing.B) {
	l := quadLayout()
	legs := []struct {
		name string
		cfg  Config
	}{
		{"inproc", serialRef(procConfig(b))},
		{"subprocess", procConfig(b)},
		{"tcp", netConfig(b, startHost(b, false).addr)},
	}
	ref, err := RunContext(context.Background(), l, legs[0].cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			res, err := RunContext(context.Background(), l, leg.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !slices.Equal(res.Shots, ref.Shots) || res.LinkCrashes != 0 {
				b.Fatalf("%d shots, %d failed dispatches; in-process %d shots", len(res.Shots), res.LinkCrashes, len(ref.Shots))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), l, leg.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
