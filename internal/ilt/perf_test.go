package ilt

import (
	"fmt"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
)

// benchWindows are the windows the repository benchmark optimizes: the
// 96-px array window at 4 nm/px and the 128- and 192-px chip windows at
// 8 nm/px, at its kernel count.
var benchWindows = []struct {
	n      int
	tileNM float64
}{{96, 384}, {128, 1024}, {192, 1536}}

// windowSetup builds the production-optics simulator of an n-px window
// tileNM wide and a target of two bars and a square in its middle half,
// so the ROI holds part of the window, as it does in the flow.
func windowSetup(tb testing.TB, n int, tileNM float64) (*litho.Simulator, *grid.Real) {
	tb.Helper()
	cfg := optics.Default()
	cfg.TileNM = tileNM
	sim, err := litho.New(cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	sim.KOpt = 4
	target := grid.NewReal(n, n)
	for y := 3 * n / 8; y < 5*n/8; y++ {
		for x := 3 * n / 8; x < 3*n/8+n/16; x++ {
			target.Set(x, y, 1)
			target.Set(x+n/8, y, 1)
		}
	}
	for y := n / 4; y < n/4+n/12; y++ {
		for x := 9 * n / 16; x < 9*n/16+n/12; x++ {
			target.Set(x, y, 1)
		}
	}
	return sim, target
}

var sinkMask *grid.Real

// A Mosaic run of CircleOpt's stage-1 length, per window.
func BenchmarkMosaic(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprint(w.n), func(b *testing.B) {
			sim, target := windowSetup(b, w.n, w.tileNM)
			cfg := DefaultConfig()
			cfg.Iterations = 12
			e := &Mosaic{Cfg: cfg}
			e.Optimize(sim, target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkMask = e.Optimize(sim, target)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*cfg.Iterations), "ms/iter")
		})
	}
}
